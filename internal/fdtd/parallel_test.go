package fdtd

import (
	"context"
	"math"
	"runtime"
	"testing"

	"pdnsim/internal/geom"
)

// TestRunSerialParallelBitwise is the golden equivalence test for the
// striped leapfrog update: the row-partitioned parallel dispatch writes
// disjoint field rows with no shared accumulators, so a run with one worker
// and a run with several must produce bit-for-bit identical fields and port
// waveforms. The grid is sized past fdtdParallelMinCells so the parallel
// path is actually exercised.
func TestRunSerialParallelBitwise(t *testing.T) {
	const n = 192 // n·n ≥ fdtdParallelMinCells
	if n*n < fdtdParallelMinCells {
		t.Fatalf("test grid %d cells no longer exercises the parallel path (gate %d)",
			n*n, fdtdParallelMinCells)
	}
	build := func() *Sim {
		s, err := New(geom.RectShape(0, 0, 40e-3, 40e-3), n, n, 0.4e-3, 4.5, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddPort("SRC", geom.Point{X: 11e-3, Y: 13e-3}, 1,
			func(tt float64) float64 { return math.Sin(2 * math.Pi * 1e9 * tt) }); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddPort("OBS", geom.Point{X: 31e-3, Y: 29e-3}, 50, nil); err != nil {
			t.Fatal(err)
		}
		return s
	}
	run := func(procs int) *Sim {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		s := build()
		dt := 0.5 * s.MaxStableDt()
		if _, err := s.Run(context.Background(), RunOptions{Dt: dt, Tstop: 40 * dt}); err != nil {
			t.Fatal(err)
		}
		return s
	}

	serial := run(1)
	parallel := run(4)

	cmp := func(name string, a, b []float64) {
		t.Helper()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s diverges at flat index %d: %g vs %g", name, i, a[i], b[i])
			}
		}
	}
	cmp("v", serial.v, parallel.v)
	cmp("ix", serial.ix, parallel.ix)
	cmp("iy", serial.iy, parallel.iy)
	for k := range serial.ports {
		cmp("port "+serial.ports[k].Name, serial.ports[k].V, parallel.ports[k].V)
	}
}
