package extract

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"pdnsim/internal/geom"
)

func fosterNetwork(t *testing.T) *Network {
	t.Helper()
	a := buildPlane(t, 20e-3, 0.5e-3, 4.5, 8,
		[]geom.Point{{X: 1e-3, Y: 1e-3}}, []string{"P"})
	nw, err := ExtractCtx(context.Background(), a, Options{ExtraNodes: 12})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestFosterValidation(t *testing.T) {
	nw := fosterNetwork(t)
	if _, err := nw.FosterModel(5, 0); err == nil {
		t.Fatal("out-of-range port must error")
	}
}

// The untruncated Foster chain is an exact representation of the lossless
// network's driving-point impedance.
func TestFosterExactMatch(t *testing.T) {
	nw := fosterNetwork(t)
	f, err := nw.FosterModel(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Lres != 0 {
		t.Fatalf("untruncated model must have no residual L: %g", f.Lres)
	}
	if f.C0 <= 0 {
		t.Fatal("series capacitor missing")
	}
	for _, freq := range []float64{1e7, 1e8, 1e9, 2.5e9, 4e9} {
		omega := 2 * math.Pi * freq
		zf := f.Eval(omega)
		zn, err := nw.Zin(0, omega)
		if err != nil {
			t.Fatal(err)
		}
		if e := cmplx.Abs(zf-zn) / cmplx.Abs(zn); e > 1e-6 {
			t.Fatalf("Foster vs network at %g Hz: %v vs %v (err %g)", freq, zf, zn, e)
		}
	}
	// The zero-mode capacitor is the total plane capacitance.
	if e := math.Abs(f.C0-nw.TotalCapacitance()) / nw.TotalCapacitance(); e > 1e-9 {
		t.Fatalf("C0 = %g vs plane C %g", f.C0, nw.TotalCapacitance())
	}
}

// Truncation is exact below fmax up to the residual inductance's
// low-frequency absorption of the dropped tanks.
func TestFosterTruncation(t *testing.T) {
	nw := fosterNetwork(t)
	full, err := nw.FosterModel(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	trunc, err := nw.FosterModel(0, 5e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(trunc.Tanks) >= len(full.Tanks) {
		t.Fatalf("truncation dropped nothing: %d vs %d tanks", len(trunc.Tanks), len(full.Tanks))
	}
	if trunc.Lres <= 0 {
		t.Fatal("dropped tanks must leave a residual inductance")
	}
	if trunc.Order() >= full.Order() {
		t.Fatalf("order must shrink: %d vs %d", trunc.Order(), full.Order())
	}
	// The residual L absorbs only the s→0 limit of the dropped tanks, so
	// accuracy tightens as f/fmax shrinks.
	for _, c := range []struct{ f, tol float64 }{
		{1e7, 0.01}, {1e8, 0.01}, {5e8, 0.03}, {1e9, 0.08},
	} {
		omega := 2 * math.Pi * c.f
		zf := full.Eval(omega)
		zt := trunc.Eval(omega)
		if e := cmplx.Abs(zf-zt) / cmplx.Abs(zf); e > c.tol {
			t.Fatalf("truncated model diverges at %g Hz: err %g", c.f, e)
		}
	}
}

// Foster tanks land on the network's resonant frequencies.
func TestFosterTanksAtResonances(t *testing.T) {
	nw := fosterNetwork(t)
	f, err := nw.FosterModel(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	modes, err := nw.ResonantFrequencies()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Tanks) == 0 || len(modes) == 0 {
		t.Fatal("empty model")
	}
	// Every tank frequency must appear among the network modes.
	for _, tank := range f.Tanks {
		found := false
		for _, m := range modes {
			if math.Abs(m-tank.FHz)/m < 1e-9 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("tank at %g Hz is not a network mode", tank.FHz)
		}
	}
}
