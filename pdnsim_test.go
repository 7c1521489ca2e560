package pdnsim

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"pdnsim/internal/sparam"
)

// The facade must expose a working end-to-end flow: board JSON → extraction
// → frequency response → circuit realisation → transient.
func TestFacadeEndToEnd(t *testing.T) {
	spec := &BoardSpec{
		Name:       "facade plane",
		Shape:      ShapeSpec{Type: "rect", W: 30, H: 30},
		PlaneSepMM: 0.4,
		EpsR:       4.5,
		SheetRes:   0.6e-3,
		MeshNx:     10, MeshNy: 10,
		ExtraNodes: 6,
		Ports: []PortSpec{
			{Name: "A", X: 3, Y: 3},
			{Name: "B", X: 27, Y: 27},
		},
	}
	res, err := spec.ExtractCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	z, err := res.Network.Zin(0, 2*math.Pi*1e8)
	if err != nil {
		t.Fatal(err)
	}
	if imag(z) >= 0 {
		t.Fatalf("plane should be capacitive at 100 MHz: %v", z)
	}

	// Realise into a circuit and run a transient current-injection.
	c := NewCircuit()
	ports, err := res.Network.Attach(c, "plane")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddISource("I1", Ground, ports[0],
		Pulse{V1: 0, V2: 0.5, Rise: 0.2e-9, Width: 2e-9}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddResistor("RVRM", ports[1], Ground, 0.01); err != nil {
		t.Fatal(err)
	}
	tr, err := c.Tran(TranOptions{Dt: 0.01e-9, Tstop: 4e-9, Method: Trapezoidal})
	if err != nil {
		t.Fatal(err)
	}
	v := tr.V(ports[0])
	var peak float64
	for _, x := range v {
		peak = math.Max(peak, math.Abs(x))
	}
	if peak <= 0 || peak > 10 {
		t.Fatalf("implausible injection response: %g", peak)
	}
}

func TestFacadeParseBoard(t *testing.T) {
	spec, err := ParseBoard([]byte(`{
	  "name": "json plane",
	  "shape": {"type": "rect", "w_mm": 10, "h_mm": 10},
	  "plane_sep_mm": 0.3, "eps_r": 4.2, "sheet_res_ohm_sq": 0,
	  "mesh_nx": 6, "mesh_ny": 6, "extra_nodes": 0,
	  "ports": [{"name": "P", "x_mm": 5, "y_mm": 5}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "json plane" {
		t.Fatalf("spec = %+v", spec)
	}
}

func TestFacadeTLineAndSParams(t *testing.T) {
	p, err := SolveTLine(TLineGeometry{
		Strips: []TLineStrip{{X: 0, W: 1e-3}},
		H:      0.55e-3, EpsR: 4.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if z0 := math.Sqrt(p.L.At(0, 0) / p.C.At(0, 0)); z0 < 30 || z0 > 90 {
		t.Fatalf("Z0 = %g", z0)
	}

	cav, err := NewCavity(20e-3, 20e-3, 0.4e-3, 4.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := cav.AddPort("P1", 5e-3, 5e-3); err != nil {
		t.Fatal(err)
	}
	if err := cav.AddPort("P2", 15e-3, 15e-3); err != nil {
		t.Fatal(err)
	}
	// Below the first cavity mode (≈3.5 GHz) the norms stay small enough
	// for the sufficient-only passivity screen.
	sw, err := SweepSCtx(context.Background(), LinSpace(0.2e9, 1.5e9, 10), 50,
		func(_ context.Context, omega float64) (*CMatrix, error) { return cav.Z(omega) })
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 10 {
		t.Fatalf("sweep points = %d", len(sw.Points))
	}
	for _, pt := range sw.Points {
		if sigma := sparam.MaxSingularValue(pt.S); sigma > 1+1e-6 {
			t.Fatalf("cavity S-parameters must be passive: σmax = %g at %g Hz", sigma, pt.Freq)
		}
	}
}

func TestFacadeFDTD(t *testing.T) {
	sim, err := NewFDTD(RectShape(0, 0, 10e-3, 10e-3), 12, 12, 0.3e-3, 4.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	port, err := sim.AddPort("P", Point{X: 5e-3, Y: 5e-3}, 50, func(t float64) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	// τ = R·C_plane ≈ 0.66 ns; run ~9τ to settle.
	if _, err := sim.Run(context.Background(), FDTDRunOptions{Dt: 0.9 * sim.MaxStableDt(), Tstop: 6e-9}); err != nil {
		t.Fatal(err)
	}
	if last := port.V[len(port.V)-1]; math.Abs(last-1) > 0.02 {
		t.Fatalf("port should charge to the source: %g", last)
	}
}

func TestFacadeSSN(t *testing.T) {
	sys, err := BuildSSN(
		SSNBoard{
			Shape: RectShape(0, 0, 40e-3, 30e-3), PlaneSep: 0.4e-3, EpsR: 4.5,
			MeshNx: 8, MeshNy: 6, ExtraNodes: 4,
		},
		SSNVRM{At: Point{X: 3e-3, Y: 3e-3}, V: 3.3, R: 5e-3, L: 10e-9},
		[]SSNChip{{
			Name: "U1", At: Point{X: 32e-3, Y: 22e-3},
			Drivers: 4, Switching: 4, Vdd: 3.3, Pin: QFPPin,
			Kind: SSNRampDriver, Delay: 0.5e-9, Width: 2e-9,
		}},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(0.02e-9, 4e-9, Trapezoidal)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GroundBounce["U1"] <= 0 {
		t.Fatal("no SSN produced")
	}
}

func TestFacadeConstants(t *testing.T) {
	if cmplx.Abs(complex(C0*math.Sqrt(Mu0*Eps0), 0)-1) > 1e-6 {
		t.Fatalf("c0·√(μ0ε0) = %g, want 1", C0*math.Sqrt(Mu0*Eps0))
	}
}
