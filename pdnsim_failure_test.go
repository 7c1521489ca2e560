package pdnsim

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestParseBoardMalformedNeverPanics feeds a corpus of malformed board
// descriptions through the public parser: every one must come back as a
// typed error, never a panic or a silently accepted spec.
func TestParseBoardMalformedNeverPanics(t *testing.T) {
	corpus := []string{
		``,
		`{`,
		`[]`,
		`42`,
		`{"unknown_field": 1}`,
		`{"name":"x","shape":{"type":"blob"},"plane_sep_mm":0.4,"eps_r":4.5,"ports":[{"name":"p","x_mm":1,"y_mm":1}]}`,
		`{"name":"x","shape":{"type":"rect","w_mm":-5,"h_mm":4},"plane_sep_mm":0.4,"eps_r":4.5,"ports":[{"name":"p","x_mm":1,"y_mm":1}]}`,
		`{"name":"x","shape":{"type":"rect","w_mm":50,"h_mm":40},"plane_sep_mm":-0.4,"eps_r":4.5,"ports":[{"name":"p","x_mm":1,"y_mm":1}]}`,
		`{"name":"x","shape":{"type":"rect","w_mm":50,"h_mm":40},"plane_sep_mm":0.4,"eps_r":0.5,"ports":[{"name":"p","x_mm":1,"y_mm":1}]}`,
		`{"name":"x","shape":{"type":"rect","w_mm":50,"h_mm":40},"plane_sep_mm":0.4,"eps_r":4.5,"ports":[]}`,
		`{"name":"x","shape":{"type":"polygon","points_mm":[[0,0],[1,0]]},"plane_sep_mm":0.4,"eps_r":4.5,"ports":[{"name":"p","x_mm":1,"y_mm":1}]}`,
		`{"name":"x","shape":{"type":"rect","w_mm":50,"h_mm":40},"plane_sep_mm":0.4,"eps_r":4.5,"sheet_res_ohm_sq":-1,"ports":[{"name":"p","x_mm":1,"y_mm":1}]}`,
		`{"name":"x","shape":{"type":"lshape","w_mm":50,"h_mm":40,"notch_w_mm":60,"notch_h_mm":10},"plane_sep_mm":0.4,"eps_r":4.5,"ports":[{"name":"p","x_mm":1,"y_mm":1}]}`,
	}
	for i, src := range corpus {
		if _, err := ParseBoard([]byte(src)); err == nil {
			t.Errorf("corpus[%d] must be rejected: %s", i, src)
		} else if !errors.Is(err, ErrBadInput) {
			t.Errorf("corpus[%d] must be ErrBadInput-class, got %v", i, err)
		}
	}
}

// TestBoardSpecNonFiniteRejected builds specs in code with NaN/Inf fields —
// values JSON cannot express but a programmatic caller can.
func TestBoardSpecNonFiniteRejected(t *testing.T) {
	base := func() *BoardSpec {
		return &BoardSpec{
			Name:       "nf",
			Shape:      ShapeSpec{Type: "rect", W: 50, H: 40},
			PlaneSepMM: 0.4, EpsR: 4.5,
			Ports: []PortSpec{{Name: "p", X: 1, Y: 1}},
		}
	}
	mutations := []func(*BoardSpec){
		func(b *BoardSpec) { b.PlaneSepMM = math.NaN() },
		func(b *BoardSpec) { b.EpsR = math.Inf(1) },
		func(b *BoardSpec) { b.SheetRes = math.NaN() },
		func(b *BoardSpec) { b.Shape.W = math.NaN() },
		func(b *BoardSpec) { b.Shape.H = math.Inf(1) },
		func(b *BoardSpec) { b.Ports[0].X = math.NaN() },
	}
	for i, mut := range mutations {
		b := base()
		mut(b)
		if err := b.Validate(); !errors.Is(err, ErrBadInput) {
			t.Errorf("mutation %d must be ErrBadInput, got %v", i, err)
		}
	}
}

// TestGridMeshGarbageShapesNeverPanic drives degenerate geometry through the
// public facade; panics from the geometry kernel must surface as ErrBadInput.
func TestGridMeshGarbageShapesNeverPanic(t *testing.T) {
	shapes := []Shape{
		{},
		{Outline: Polygon{{X: 0, Y: 0}}},
		{Outline: Polygon{{X: 0, Y: 0}, {X: 1, Y: 1}}},
		{Outline: Polygon{{X: math.NaN(), Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}}},
		{Outline: Polygon{{X: math.Inf(1), Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}}},
		{Outline: Polygon{{X: 0, Y: 0}, {X: 0, Y: 0}, {X: 0, Y: 0}}},
	}
	for i, s := range shapes {
		m, err := GridMesh(s, 4, 4)
		if err == nil && m != nil {
			// A degenerate shape that meshes to something is acceptable as
			// long as nothing panicked; skip.
			continue
		}
		if err == nil {
			t.Errorf("shape %d: nil mesh with nil error", i)
		}
	}
	// Malformed L-shape parameters panic inside geom by contract; the facade
	// must convert that to ErrBadInput rather than crash.
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic escaped the facade: %v", r)
		}
	}()
	badL := func() Shape {
		defer func() { recover() }() // geom.LShape itself may panic: contain it
		return LShape(-1, -1, 5, 5)
	}()
	if _, err := GridMesh(badL, 4, 4); err == nil {
		t.Log("degenerate L-shape meshed without error (acceptable: no panic)")
	}
}

// TestPipelineCancellation exercises ctx threading end-to-end through the
// public facade: assemble and extract must both stop on an expired context.
func TestPipelineCancellation(t *testing.T) {
	spec := &BoardSpec{
		Name:       "cancel",
		Shape:      ShapeSpec{Type: "rect", W: 30, H: 20},
		PlaneSepMM: 0.4, EpsR: 4.5,
		MeshNx: 8, MeshNy: 8,
		Ports: []PortSpec{{Name: "p", X: 5, Y: 5}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := spec.ExtractCtx(ctx); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled pipeline must return ErrCancelled, got %v", err)
	}

	// The same board runs to completion with a live context, and the ctx-
	// aware facade functions agree with their plain counterparts.
	res, err := spec.ExtractCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepSCtx(ctx, LinSpace(1e8, 1e9, 5), 50, res.Network.PortZCtx); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled sweep must return ErrCancelled, got %v", err)
	}
	sw, err := SweepSCtx(context.Background(), LinSpace(1e8, 1e9, 5), 50, res.Network.PortZCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 5 {
		t.Fatalf("sweep lost points: %d", len(sw.Points))
	}
}

// TestSweepRejectsNonFiniteFrequencies covers the sweep-input guard.
func TestSweepRejectsNonFiniteFrequencies(t *testing.T) {
	zAt := func(_ context.Context, omega float64) (*CMatrix, error) { return nil, nil }
	if _, err := SweepSCtx(context.Background(), []float64{1e9, math.NaN()}, 50, zAt); !errors.Is(err, ErrBadInput) {
		t.Fatalf("NaN frequency must be ErrBadInput, got %v", err)
	}
	if _, err := SweepSCtx(context.Background(), []float64{1e9}, math.NaN(), zAt); !errors.Is(err, ErrBadInput) {
		t.Fatalf("NaN z0 must be ErrBadInput, got %v", err)
	}
}

// TestTLineGarbageGeometry drives bad cross-sections through the facade.
func TestTLineGarbageGeometry(t *testing.T) {
	cases := []TLineGeometry{
		{},
		{Strips: []TLineStrip{{X: 0, W: -1}}, H: 0.2e-3, EpsR: 4.5},
		{Strips: []TLineStrip{{X: 0, W: math.NaN()}}, H: 0.2e-3, EpsR: 4.5},
		{Strips: []TLineStrip{{X: 0, W: 1e-3}}, H: math.NaN(), EpsR: 4.5},
		{Strips: []TLineStrip{{X: 0, W: 1e-3}, {X: 0.2e-3, W: 1e-3}}, H: 0.2e-3, EpsR: 4.5},
	}
	for i, g := range cases {
		if _, err := SolveTLine(g); !errors.Is(err, ErrBadInput) {
			t.Errorf("case %d must be ErrBadInput, got %v", i, err)
		}
	}
}

// TestErrorClassesDistinct guards the taxonomy itself at the facade level:
// no sentinel may match another's class.
func TestErrorClassesDistinct(t *testing.T) {
	sentinels := []error{ErrSingular, ErrNonConvergence, ErrBadInput, ErrCancelled, ErrNaN}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if (i == j) != errors.Is(a, b) {
				t.Errorf("sentinel %d vs %d: Is=%v", i, j, errors.Is(a, b))
			}
		}
	}
}
