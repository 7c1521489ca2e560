package core

import (
	"context"
	"math"
	"math/cmplx"
	"strings"
	"testing"
)

const validBoard = `{
  "name": "test plane",
  "shape": {"type": "rect", "w_mm": 20, "h_mm": 20},
  "plane_sep_mm": 0.5,
  "eps_r": 4.5,
  "sheet_res_ohm_sq": 0.001,
  "mesh_nx": 8,
  "mesh_ny": 8,
  "extra_nodes": 6,
  "ports": [
    {"name": "P1", "x_mm": 1, "y_mm": 1},
    {"name": "P2", "x_mm": 19, "y_mm": 19}
  ]
}`

func TestParseBoardValid(t *testing.T) {
	b, err := ParseBoard([]byte(validBoard))
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "test plane" || len(b.Ports) != 2 {
		t.Fatalf("parsed = %+v", b)
	}
}

func TestParseBoardRejectsUnknownFields(t *testing.T) {
	bad := strings.Replace(validBoard, `"name"`, `"bogus_field": 1, "name"`, 1)
	if _, err := ParseBoard([]byte(bad)); err == nil {
		t.Fatal("unknown fields must error")
	}
}

func TestParseBoardRejectsGarbage(t *testing.T) {
	if _, err := ParseBoard([]byte("{nope")); err == nil {
		t.Fatal("syntax error must propagate")
	}
}

func TestValidateErrors(t *testing.T) {
	mk := func(mut func(*BoardSpec)) error {
		b, err := ParseBoard([]byte(validBoard))
		if err != nil {
			t.Fatal(err)
		}
		mut(b)
		return b.Validate()
	}
	cases := []struct {
		name string
		mut  func(*BoardSpec)
	}{
		{"zero sep", func(b *BoardSpec) { b.PlaneSepMM = 0 }},
		{"epsr<1", func(b *BoardSpec) { b.EpsR = 0.5 }},
		{"neg sheet", func(b *BoardSpec) { b.SheetRes = -1 }},
		{"no ports", func(b *BoardSpec) { b.Ports = nil }},
		{"bad shape", func(b *BoardSpec) { b.Shape.Type = "circle" }},
		{"bad rect", func(b *BoardSpec) { b.Shape.W = 0 }},
		{"bad kernel", func(b *BoardSpec) { b.Kernel = "full-wave" }},
		{"bad testing", func(b *BoardSpec) { b.Testing = "nystrom" }},
		{"bad operator", func(b *BoardSpec) { b.Operator = "fmm" }},
	}
	for _, c := range cases {
		if err := mk(c.mut); err == nil {
			t.Fatalf("%s: expected validation error", c.name)
		}
	}
}

func TestLShapeSpec(t *testing.T) {
	b, err := ParseBoard([]byte(validBoard))
	if err != nil {
		t.Fatal(err)
	}
	b.Shape = ShapeSpec{Type: "lshape", W: 20, H: 20, NotchW: 8, NotchH: 8}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	s := b.BuildShape()
	if math.Abs(s.Area()-(400-64)*1e-6) > 1e-9 {
		t.Fatalf("L-shape area = %g", s.Area())
	}
	b.Shape.NotchW = 25
	if err := b.Validate(); err == nil {
		t.Fatal("oversize notch must error")
	}
}

func TestPolygonSpec(t *testing.T) {
	b, err := ParseBoard([]byte(validBoard))
	if err != nil {
		t.Fatal(err)
	}
	b.Shape = ShapeSpec{Type: "polygon", Points: [][2]float64{{0, 0}, {10, 0}, {0, 10}}}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	s := b.BuildShape()
	if math.Abs(s.Area()-50e-6) > 1e-12 {
		t.Fatalf("triangle area = %g", s.Area())
	}
	b.Shape.Points = b.Shape.Points[:2]
	if err := b.Validate(); err == nil {
		t.Fatal("2-point polygon must error")
	}
}

func TestExtractPipelineEndToEnd(t *testing.T) {
	b, err := ParseBoard([]byte(validBoard))
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExtractCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mesh.Stats().Cells != 64 {
		t.Fatalf("cells = %d", res.Mesh.Stats().Cells)
	}
	if res.Network.NumPorts != 2 || res.Network.NumNodes() != 8 {
		t.Fatalf("network: %d ports, %d nodes", res.Network.NumPorts, res.Network.NumNodes())
	}
	// The network must behave like a plane: capacitive at low frequency.
	z, err := res.Network.Zin(0, 2*math.Pi*1e6)
	if err != nil {
		t.Fatal(err)
	}
	if imag(z) >= 0 {
		t.Fatalf("low-frequency plane must be capacitive: %v", z)
	}
	want := 1 / (2 * math.Pi * 1e6 * res.Network.TotalCapacitance())
	if e := math.Abs(cmplx.Abs(z)-want) / want; e > 0.02 {
		t.Fatalf("|Zin| = %g want %g", cmplx.Abs(z), want)
	}
}

func TestExtractGalerkinAndMicrostrip(t *testing.T) {
	b, err := ParseBoard([]byte(validBoard))
	if err != nil {
		t.Fatal(err)
	}
	b.Testing = "galerkin"
	b.Kernel = "microstrip"
	b.NImages = 16
	res, err := b.ExtractCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Network.TotalCapacitance() <= 0 {
		t.Fatal("no capacitance extracted")
	}
}

func TestExtractOperatorModes(t *testing.T) {
	// Each operator mode must survive the full pipeline, and forcing the
	// Toeplitz path on a small mesh must reproduce the dense extraction's
	// total capacitance (the agreement contract lives in internal/extract;
	// this is the plumbing check that the JSON field reaches the assembly).
	extractWith := func(mode string) *Result {
		t.Helper()
		b, err := ParseBoard([]byte(validBoard))
		if err != nil {
			t.Fatal(err)
		}
		b.Operator = mode
		res, err := b.ExtractCtx(context.Background())
		if err != nil {
			t.Fatalf("operator %q: %v", mode, err)
		}
		return res
	}
	dense := extractWith("dense")
	if dense.Assembly.POp != nil {
		t.Fatal("dense mode must not emit a Toeplitz operator")
	}
	toep := extractWith("toeplitz")
	if toep.Assembly.POp == nil {
		t.Fatal("toeplitz mode must emit the P operator")
	}
	cd, ct := dense.Network.TotalCapacitance(), toep.Network.TotalCapacitance()
	if math.Abs(ct-cd) > 1e-6*math.Abs(cd) {
		t.Fatalf("total capacitance: toeplitz %g vs dense %g", ct, cd)
	}
	if auto := extractWith("auto"); auto.Assembly.POp == nil {
		t.Fatal("auto mode must emit operators on a uniform grid")
	}
}

func TestExtractDefaultsMesh(t *testing.T) {
	b, err := ParseBoard([]byte(validBoard))
	if err != nil {
		t.Fatal(err)
	}
	b.MeshNx, b.MeshNy = 0, 0
	res, err := b.ExtractCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mesh.Stats().Cells != 256 {
		t.Fatalf("default mesh cells = %d", res.Mesh.Stats().Cells)
	}
}

func TestExtractPortCollision(t *testing.T) {
	b, err := ParseBoard([]byte(validBoard))
	if err != nil {
		t.Fatal(err)
	}
	b.Ports = append(b.Ports, PortSpec{Name: "P3", X: 1.2, Y: 1.2})
	if _, err := b.ExtractCtx(context.Background()); err == nil {
		t.Fatal("colliding ports must error")
	}
}

// TestFingerprint pins the cache-key contract: the hash covers everything
// the extracted operators depend on and nothing else — renaming a board
// keeps the key, moving a port or touching the stackup changes it, and the
// encoding is deterministic across calls.
func TestFingerprint(t *testing.T) {
	b, err := ParseBoard([]byte(validBoard))
	if err != nil {
		t.Fatal(err)
	}
	fp := b.Fingerprint()
	if len(fp) != 64 {
		t.Fatalf("fingerprint must be a sha256 hex digest, got %q", fp)
	}
	if b.Fingerprint() != fp {
		t.Fatal("fingerprint must be deterministic")
	}
	renamed := *b
	renamed.Name = "same geometry, different label"
	if renamed.Fingerprint() != fp {
		t.Fatal("display name must not change the fingerprint (a renamed board re-extracts identically)")
	}
	for _, tc := range []struct {
		name string
		mut  func(*BoardSpec)
	}{
		{"moved port", func(s *BoardSpec) { s.Ports[0].X += 0.5 }},
		{"plane separation", func(s *BoardSpec) { s.PlaneSepMM *= 2 }},
		{"permittivity", func(s *BoardSpec) { s.EpsR = 3.8 }},
		{"mesh resolution", func(s *BoardSpec) { s.MeshNx = 16 }},
		{"kernel", func(s *BoardSpec) { s.Kernel = "microstrip" }},
		{"extra nodes", func(s *BoardSpec) { s.ExtraNodes++ }},
	} {
		mutated, err := ParseBoard([]byte(validBoard))
		if err != nil {
			t.Fatal(err)
		}
		tc.mut(mutated)
		if mutated.Fingerprint() == fp {
			t.Fatalf("%s must change the fingerprint", tc.name)
		}
	}
}
