package sparam

import (
	"context"
	"math"
	"runtime"
	"testing"

	"pdnsim/internal/bem"
	"pdnsim/internal/extract"
	"pdnsim/internal/geom"
	"pdnsim/internal/greens"
	"pdnsim/internal/mat"
	"pdnsim/internal/mesh"
)

// TestNestedSweepExtractionParallel is the end-to-end exercise of nested
// parallelism: SweepZCtx fans frequency points out through mat.ParallelFor,
// and inside every point PortZCtx fans out over port columns — the exact
// shape the package-level worker budget exists for. Run under -race (make
// check does), it is the regression test for data races across the
// sweep→extraction nesting; it also pins the determinism contract by
// comparing the swept S-parameters bitwise against a serial rerun.
func TestNestedSweepExtractionParallel(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	const side, h, epsR = 30e-3, 0.4e-3, 4.5
	m, err := mesh.Grid(geom.RectShape(0, 0, side, side), 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		name string
		at   geom.Point
	}{
		{"P1", geom.Point{X: 0.25 * side, Y: 0.25 * side}},
		{"P2", geom.Point{X: 0.75 * side, Y: 0.70 * side}},
	} {
		if _, err := m.AddPort(p.name, p.at); err != nil {
			t.Fatal(err)
		}
	}
	k, err := greens.NewKernel(greens.OverGround, h, epsR, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := bem.AssembleCtx(context.Background(), m, k, bem.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nw, err := extract.ExtractCtx(context.Background(), a, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}

	freqs := LinSpace(0.5e9, 8e9, 24)
	sweep := func() *Sweep {
		sw, err := SweepZCtx(context.Background(), freqs, 50,
			func(ctx context.Context, omega float64) (*mat.CMatrix, error) {
				return nw.PortZCtx(ctx, omega)
			})
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}

	parallel := sweep()
	runtime.GOMAXPROCS(1)
	serial := sweep()
	runtime.GOMAXPROCS(4)

	if len(parallel.Points) != len(freqs) || len(serial.Points) != len(freqs) {
		t.Fatalf("sweep dropped points: parallel %d, serial %d, want %d",
			len(parallel.Points), len(serial.Points), len(freqs))
	}
	for i := range parallel.Points {
		ps, ss := parallel.Points[i].S, serial.Points[i].S
		for j := range ps.Data {
			if ps.Data[j] != ss.Data[j] {
				t.Fatalf("point %d (f=%g): parallel and serial S diverge at %d: %v vs %v",
					i, freqs[i], j, ps.Data[j], ss.Data[j])
			}
		}
		for j := range ps.Data {
			if v := ps.Data[j]; math.IsNaN(real(v)) || math.IsNaN(imag(v)) {
				t.Fatalf("point %d: NaN in S matrix", i)
			}
		}
	}
	if err := parallel.Verify(); err != nil {
		t.Fatalf("swept S-parameters failed verification: %v", err)
	}
}
