package greens

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pdnsim/internal/geom"
)

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Max(1e-300, math.Abs(want))
}

func TestGaussLegendreIntegratesPolynomials(t *testing.T) {
	// An n-point rule is exact for polynomials of degree 2n-1.
	for n := 1; n <= 5; n++ {
		xs, ws := GaussLegendre(n)
		for deg := 0; deg <= 2*n-1; deg++ {
			var got float64
			for i := range xs {
				got += ws[i] * math.Pow(xs[i], float64(deg))
			}
			var want float64
			if deg%2 == 0 {
				want = 2.0 / float64(deg+1)
			}
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("n=%d deg=%d: got %g want %g", n, deg, got, want)
			}
		}
	}
}

func TestGaussLegendreUnsupportedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for order 6")
		}
	}()
	GaussLegendre(6)
}

func TestRectIntegralFarField(t *testing.T) {
	// Far from a small rectangle the integral tends to area/r.
	rect := geom.Rect{X0: -0.5e-3, Y0: -0.5e-3, X1: 0.5e-3, Y1: 0.5e-3}
	obs := geom.Point{X: 1.0, Y: 0.7}
	got := RectIntegralInvR(rect, obs, 0)
	r := math.Hypot(obs.X, obs.Y)
	want := rect.Area() / r
	if relErr(got, want) > 1e-5 {
		t.Fatalf("far field: got %g want %g", got, want)
	}
}

func TestRectIntegralSelfTermSquare(t *testing.T) {
	// Self-potential integral of a unit square at its centre:
	// ∫∫ dA/r = 4·ln(1+√2)·a for an a×a square (classic result: for unit
	// square the value is 2·ln(1+√2)·2 ≈ 3.5255).
	a := 2.0
	rect := geom.Rect{X0: -a / 2, Y0: -a / 2, X1: a / 2, Y1: a / 2}
	got := RectIntegralInvR(rect, rect.Center(), 0)
	want := 4 * math.Log(1+math.Sqrt2) * a
	if relErr(got, want) > 1e-12 {
		t.Fatalf("self term: got %g want %g", got, want)
	}
}

func TestRectIntegralMatchesQuadratureOffPlane(t *testing.T) {
	rect := geom.Rect{X0: 0, Y0: 0, X1: 2e-3, Y1: 1e-3}
	obs := geom.Point{X: 2.5e-3, Y: 0.4e-3}
	z := 0.8e-3
	got := RectIntegralInvR(rect, obs, z)
	// Brute-force midpoint quadrature.
	const n = 400
	dx, dy := rect.W()/n, rect.H()/n
	var want float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x := rect.X0 + (float64(i)+0.5)*dx
			y := rect.Y0 + (float64(j)+0.5)*dy
			d := math.Sqrt((x-obs.X)*(x-obs.X) + (y-obs.Y)*(y-obs.Y) + z*z)
			want += dx * dy / d
		}
	}
	if relErr(got, want) > 1e-4 {
		t.Fatalf("off-plane integral: got %g want %g", got, want)
	}
}

func TestRectIntegralSymmetryProperty(t *testing.T) {
	// The integral is invariant under swapping the roles of x and y.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 0.5 + rng.Float64()
		h := 0.5 + rng.Float64()
		ox := 2 * rng.NormFloat64()
		oy := 2 * rng.NormFloat64()
		z := rng.Float64()
		a := RectIntegralInvR(geom.Rect{X0: 0, Y0: 0, X1: w, Y1: h}, geom.Point{X: ox, Y: oy}, z)
		b := RectIntegralInvR(geom.Rect{X0: 0, Y0: 0, X1: h, Y1: w}, geom.Point{X: oy, Y: ox}, z)
		return relErr(a, b) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNewKernelValidation(t *testing.T) {
	if _, err := NewKernel(OverGround, 0, 4.5, 8); err == nil {
		t.Fatal("expected error for zero height")
	}
	k, err := NewKernel(FreeSpace, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k.EpsR != 1 || k.NImages != 12 {
		t.Fatalf("defaults not applied: %+v", k)
	}
}

func TestKernelModeString(t *testing.T) {
	if FreeSpace.String() != "free-space" || Microstrip.String() != "microstrip" {
		t.Fatal("String() labels wrong")
	}
	if KernelMode(99).String() == "" {
		t.Fatal("unknown mode should still format")
	}
}

// Parallel-plate DC limit: integrating the OverGround scalar kernel over a
// plate that is large compared to h must give a potential-coefficient whose
// inverse is the parallel-plate capacitance εA/h. We test the potential at
// the centre of a large uniformly charged plate.
func TestOverGroundParallelPlateLimit(t *testing.T) {
	h := 0.2e-3
	epsR := 4.5
	k, err := NewKernel(OverGround, h, epsR, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Plate 100h × 100h, uniform unit charge density; potential at centre.
	side := 100 * h
	plate := geom.Rect{X0: -side / 2, Y0: -side / 2, X1: side / 2, Y1: side / 2}
	v := k.ScalarPanel(plate, plate.Center())
	// Parallel plate: V = σ·h/ε.
	want := h / (Eps0 * epsR)
	if relErr(v, want) > 0.02 {
		t.Fatalf("parallel plate limit: got %g want %g (err %.3f)", v, want, relErr(v, want))
	}
}

// The microstrip interface kernel must satisfy the same DC plate limit:
// V → σ·h/(ε0εr), independently of the air above.
func TestMicrostripParallelPlateLimit(t *testing.T) {
	h := 0.2e-3
	epsR := 9.6
	k, err := NewKernel(Microstrip, h, epsR, 60)
	if err != nil {
		t.Fatal(err)
	}
	side := 200 * h
	plate := geom.Rect{X0: -side / 2, Y0: -side / 2, X1: side / 2, Y1: side / 2}
	v := k.ScalarPanel(plate, plate.Center())
	want := h / (Eps0 * epsR)
	if relErr(v, want) > 0.05 {
		t.Fatalf("microstrip plate limit: got %g want %g (err %.3f)", v, want, relErr(v, want))
	}
}

// With εr = 1 the microstrip kernel must reduce to the over-ground kernel.
func TestMicrostripDegeneratesToOverGround(t *testing.T) {
	h := 1e-3
	km, _ := NewKernel(Microstrip, h, 1, 20)
	kg, _ := NewKernel(OverGround, h, 1, 1)
	src := geom.Rect{X0: 0, Y0: 0, X1: 1e-3, Y1: 1e-3}
	for _, obs := range []geom.Point{{X: 0.5e-3, Y: 0.5e-3}, {X: 3e-3, Y: 1e-3}, {X: 10e-3, Y: -2e-3}} {
		a := km.ScalarPanel(src, obs)
		b := kg.ScalarPanel(src, obs)
		if relErr(a, b) > 1e-12 {
			t.Fatalf("εr=1 microstrip != over-ground at %v: %g vs %g", obs, a, b)
		}
	}
}

// The ground-plane image must reduce the potential relative to free space
// (shielding), and the reduction must grow as the field point moves away.
func TestGroundPlaneShielding(t *testing.T) {
	h := 0.5e-3
	kfs, _ := NewKernel(FreeSpace, 0, 1, 1)
	kg, _ := NewKernel(OverGround, h, 1, 1)
	src := geom.Rect{X0: 0, Y0: 0, X1: 1e-3, Y1: 1e-3}
	prevRatio := 1.0
	for _, d := range []float64{2e-3, 5e-3, 10e-3, 30e-3} {
		obs := geom.Point{X: d, Y: 0.5e-3}
		ratio := kg.ScalarPanel(src, obs) / kfs.ScalarPanel(src, obs)
		if ratio >= prevRatio {
			t.Fatalf("shielding ratio must decrease with distance: %g at %g", ratio, d)
		}
		prevRatio = ratio
	}
}

func TestVectorPanelImageSign(t *testing.T) {
	h := 0.5e-3
	k, _ := NewKernel(OverGround, h, 1, 1)
	kfs, _ := NewKernel(FreeSpace, 0, 1, 1)
	src := geom.Rect{X0: 0, Y0: 0, X1: 1e-3, Y1: 1e-3}
	obs := geom.Point{X: 4e-3, Y: 0}
	if k.VectorPanel(src, obs) >= kfs.VectorPanel(src, obs) {
		t.Fatal("ground image must reduce the vector potential")
	}
	if k.VectorPanel(src, obs) <= 0 {
		t.Fatal("vector panel must stay positive at moderate distance")
	}
}

func TestGalerkinConvergesToCollocationForFarPanels(t *testing.T) {
	// For well-separated panels Galerkin and collocation agree closely.
	k, _ := NewKernel(OverGround, 0.3e-3, 4.2, 1)
	src := geom.Rect{X0: 0, Y0: 0, X1: 1e-3, Y1: 1e-3}
	obs := geom.Rect{X0: 10e-3, Y0: 2e-3, X1: 11e-3, Y1: 3e-3}
	colloc := k.ScalarPanel(src, obs.Center())
	galerkin := k.ScalarPanelGalerkin(src, obs, 3)
	if relErr(colloc, galerkin) > 1e-2 {
		t.Fatalf("far-panel Galerkin vs collocation: %g vs %g", galerkin, colloc)
	}
	vg := k.VectorPanelGalerkin(src, obs, 2)
	vc := k.VectorPanel(src, obs.Center())
	if relErr(vg, vc) > 1e-2 {
		t.Fatalf("vector Galerkin vs collocation: %g vs %g", vg, vc)
	}
}

func TestGalerkinSelfTermLargerThanCollocationCenter(t *testing.T) {
	// For the self panel, averaging 1/r over the panel gives a smaller value
	// than evaluating at the centre (the centre is the singular maximum).
	k, _ := NewKernel(FreeSpace, 0, 1, 1)
	p := geom.Rect{X0: 0, Y0: 0, X1: 1e-3, Y1: 1e-3}
	colloc := k.ScalarPanel(p, p.Center())
	galerkin := k.ScalarPanelGalerkin(p, p, 4)
	if galerkin >= colloc {
		t.Fatalf("self-term Galerkin %g should be below collocation %g", galerkin, colloc)
	}
	if galerkin < 0.5*colloc {
		t.Fatalf("self-term Galerkin %g implausibly small vs %g", galerkin, colloc)
	}
}

func TestMicrostripSeriesConvergence(t *testing.T) {
	// Increasing the image count must converge geometrically.
	h := 0.25e-3
	src := geom.Rect{X0: 0, Y0: 0, X1: 1e-3, Y1: 1e-3}
	obs := geom.Point{X: 2e-3, Y: 0.5e-3}
	// εr = 9.6 gives image ratio K = 0.81, so convergence is geometric but
	// slow: error ~ K^n.
	kRef, _ := NewKernel(Microstrip, h, 9.6, 400)
	ref := kRef.ScalarPanel(src, obs)
	prevErr := math.Inf(1)
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		k, _ := NewKernel(Microstrip, h, 9.6, n)
		e := relErr(k.ScalarPanel(src, obs), ref)
		if e > prevErr+1e-15 {
			t.Fatalf("series error must not increase: n=%d err=%g prev=%g", n, e, prevErr)
		}
		prevErr = e
	}
	if prevErr > 1e-4 {
		t.Fatalf("series not converged at 128 images: err=%g", prevErr)
	}
}
