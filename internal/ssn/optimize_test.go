package ssn

import (
	"context"
	"errors"
	"math"
	"testing"

	"pdnsim/internal/geom"
	"pdnsim/internal/simerr"
)

func optBoard() Board {
	return Board{
		Shape:    geom.RectShape(0, 0, 60e-3, 50e-3),
		PlaneSep: 0.4e-3,
		EpsR:     4.5,
		SheetRes: 0.6e-3,
		MeshNx:   12, MeshNy: 10,
		ExtraNodes: 6,
	}
}

func optCandidates() []DecapCandidate {
	// A ring of 100 nF parts around the observation point plus two remote
	// sites near the VRM.
	pts := []geom.Point{
		{X: 40e-3, Y: 40e-3}, {X: 52e-3, Y: 32e-3}, {X: 40e-3, Y: 25e-3},
		{X: 30e-3, Y: 38e-3}, {X: 10e-3, Y: 10e-3}, {X: 15e-3, Y: 42e-3},
	}
	out := make([]DecapCandidate, len(pts))
	for i, p := range pts {
		out[i] = DecapCandidate{At: p, C: 100e-9, ESR: 15e-3, ESL: 0.8e-9}
	}
	return out
}

func TestOptimizeValidation(t *testing.T) {
	spec := OptimizeSpec{Board: optBoard(), VRM: defaultVRM()}
	if _, err := OptimizeDecaps(context.Background(), spec); err == nil {
		t.Fatal("no candidates must error")
	}
	spec.Candidates = optCandidates()
	if _, err := OptimizeDecaps(context.Background(), spec); err == nil {
		t.Fatal("zero target must error")
	}
	spec.TargetOhm = 0.1
	if _, err := OptimizeDecaps(context.Background(), spec); err == nil {
		t.Fatal("missing band must error")
	}
	spec.FminHz, spec.FmaxHz = 1e6, 5e8
	bad := spec
	bad.Candidates = []DecapCandidate{{At: geom.Point{X: 1e-3, Y: 1e-3}}}
	if _, err := OptimizeDecaps(context.Background(), bad); err == nil {
		t.Fatal("zero-C candidate must error")
	}
}

func TestOptimizeCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := OptimizeSpec{
		Board:      optBoard(),
		VRM:        VRM{At: geom.Point{X: 4e-3, Y: 4e-3}, V: 3.3, R: 5e-3, L: 20e-9},
		Observe:    geom.Point{X: 45e-3, Y: 35e-3},
		Candidates: optCandidates(),
		TargetOhm:  0.1,
		FminHz:     1e7, FmaxHz: 5e8,
	}
	if _, err := OptimizeDecaps(ctx, spec); !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("cancelled ctx: want ErrCancelled, got %v", err)
	}
}

func TestOptimizeReducesPeakMonotonically(t *testing.T) {
	spec := OptimizeSpec{
		Board:      optBoard(),
		VRM:        VRM{At: geom.Point{X: 4e-3, Y: 4e-3}, V: 3.3, R: 5e-3, L: 20e-9},
		Observe:    geom.Point{X: 45e-3, Y: 35e-3},
		Candidates: optCandidates(),
		TargetOhm:  1e-6, // unreachable: force the full budget to be used
		// Band above the VRM-dominated region, where decaps do the work.
		FminHz: 1e7, FmaxHz: 5e8,
		NFreq:     25,
		MaxDecaps: 3,
	}
	res, err := OptimizeDecaps(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chosen) != 3 {
		t.Fatalf("chose %d decaps, budget 3", len(res.Chosen))
	}
	if res.Met {
		t.Fatal("1 µΩ mask cannot be met")
	}
	for i := 1; i < len(res.PeakHistory); i++ {
		if res.PeakHistory[i] >= res.PeakHistory[i-1] {
			t.Fatalf("greedy selection must monotonically improve: %v", res.PeakHistory)
		}
	}
	// The first pick should do real work (>20 % improvement for this board).
	if res.PeakHistory[1] > 0.8*res.PeakHistory[0] {
		t.Fatalf("first decap too weak: %v", res.PeakHistory[:2])
	}
}

func TestOptimizeStopsWhenTargetMet(t *testing.T) {
	spec := OptimizeSpec{
		Board:      optBoard(),
		VRM:        VRM{At: geom.Point{X: 4e-3, Y: 4e-3}, V: 3.3, R: 5e-3, L: 20e-9},
		Observe:    geom.Point{X: 45e-3, Y: 35e-3},
		Candidates: optCandidates(),
		FminHz:     1e6, FmaxHz: 3e8,
		NFreq: 20,
	}
	// First find the achievable floor with everything mounted.
	spec.TargetOhm = 1e-9
	all, err := OptimizeDecaps(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	floor := all.PeakHistory[len(all.PeakHistory)-1]
	// A mask 3× above the floor should be reachable with fewer parts.
	spec.TargetOhm = 3 * floor
	res, err := OptimizeDecaps(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("3× floor mask should be met (floor %g, history %v)", floor, res.PeakHistory)
	}
	if len(res.Chosen) >= len(spec.Candidates) {
		t.Fatalf("meeting a loose mask should not need every part: %d", len(res.Chosen))
	}
}

func TestOptimizePrefersNearbySites(t *testing.T) {
	// With one near and one far candidate, the near one must win the first
	// pick (the paper's placement-sensitivity claim).
	near := DecapCandidate{At: geom.Point{X: 40e-3, Y: 38e-3}, C: 100e-9, ESR: 15e-3, ESL: 0.8e-9}
	far := DecapCandidate{At: geom.Point{X: 6e-3, Y: 8e-3}, C: 100e-9, ESR: 15e-3, ESL: 0.8e-9}
	spec := OptimizeSpec{
		Board:      optBoard(),
		VRM:        VRM{At: geom.Point{X: 4e-3, Y: 44e-3}, V: 3.3, R: 5e-3, L: 20e-9},
		Observe:    geom.Point{X: 47e-3, Y: 40e-3},
		Candidates: []DecapCandidate{far, near},
		TargetOhm:  1e-9,
		// Mid band: above the VRM region, below the decap's own ESL regime,
		// where the plane's spreading inductance separates the sites.
		FminHz: 2e7, FmaxHz: 3e8,
		NFreq:     20,
		MaxDecaps: 1,
	}
	res, err := OptimizeDecaps(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chosen) != 1 || res.Chosen[0] != 1 {
		t.Fatalf("expected the nearby site (index 1) first, got %v", res.Chosen)
	}
}

func TestLogSpace(t *testing.T) {
	f := logSpace(1, 100, 3)
	if len(f) != 3 || math.Abs(f[0]-1) > 1e-12 || math.Abs(f[1]-10) > 1e-9 || math.Abs(f[2]-100) > 1e-9 {
		t.Fatalf("logSpace = %v", f)
	}
	if f := logSpace(5, 50, 1); len(f) != 1 || f[0] != 5 {
		t.Fatalf("degenerate logSpace = %v", f)
	}
}
