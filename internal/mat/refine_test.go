package mat

import (
	"math"
	"math/rand"
	"testing"
)

// wilkinsonScaled builds the Wilkinson growth matrix (unit diagonal, −1
// strictly below, +1 last column — partial pivoting suffers element growth
// 2^{n−1}) with geometric column scaling spanning colSpan, which raises κ₁
// to ≈ colSpan without changing the pivot sequence. It is the canonical
// system where plain GEPP returns a poor residual that iterative refinement
// repairs.
func wilkinsonScaled(n int, colSpan float64) *Matrix {
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				a.Set(i, j, 1)
			case j == n-1:
				a.Set(i, j, 1)
			case i > j:
				a.Set(i, j, -1)
			}
		}
	}
	for j := 0; j < n; j++ {
		s := math.Pow(colSpan, float64(j)/float64(n-1))
		for i := 0; i < n; i++ {
			a.Set(i, j, a.At(i, j)*s)
		}
	}
	return a
}

// relResidual computes ‖b − A·x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞) with the same
// compensated accumulation the refinement loop uses.
func relResidual(a *Matrix, x, b []float64) float64 {
	res := make([]float64, a.Rows)
	return residualInto(res, a, x, b, NormInf(a), vecNormInf(b))
}

func TestSolveRefinedBeatsPlainSolveOnIllConditionedSystem(t *testing.T) {
	// κ₁ ≈ 1e10 (column span) with 2^25 element growth: plain GEPP cannot
	// deliver a 1e-12 residual here, refinement must.
	n := 26
	a := wilkinsonScaled(n, 1e10)
	f, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if est := f.Cond1Est(); est < 1e9 {
		t.Fatalf("test matrix should be ill-conditioned, κ₁ est = %.3g", est)
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = 1 / (1 + float64(i))
	}
	b := a.MulVec(xTrue)

	xPlain, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	plainRes := relResidual(a, xPlain, b)
	if plainRes < 1e-12 {
		t.Fatalf("plain Solve unexpectedly accurate (relres %.3g); the test matrix no longer exercises refinement", plainRes)
	}

	x, relres, err := SolveRefined(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if relres >= 1e-12 {
		t.Fatalf("SolveRefined reported relres %.3g, want < 1e-12", relres)
	}
	if got := relResidual(a, x, b); got >= 1e-12 {
		t.Fatalf("independently recomputed relres %.3g, want < 1e-12", got)
	}
	if relres >= plainRes {
		t.Fatalf("refinement did not improve: %.3g vs plain %.3g", relres, plainRes)
	}
}

func TestSolveRefinedOnWellConditionedMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 12
	a := New(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, relres, err := SolveRefined(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if relres > 1e-14 {
		t.Fatalf("well-conditioned system should refine to roundoff, relres %.3g", relres)
	}
	xs, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xs[i]) > 1e-10*(1+math.Abs(xs[i])) {
			t.Fatalf("refined and plain solutions diverge at %d: %g vs %g", i, x[i], xs[i])
		}
	}
}

func TestEquilibrateNormalisesBadScaling(t *testing.T) {
	// Rows and columns spanning 1e±9: equilibration must bring every
	// row/column max into [0.5, 2).
	rng := rand.New(rand.NewSource(5))
	n := 8
	a := New(n, n)
	for i := 0; i < n; i++ {
		rs := math.Pow(10, float64(rng.Intn(19)-9))
		for j := 0; j < n; j++ {
			cs := math.Pow(10, float64(j-4))
			a.Set(i, j, rs*cs*(1+rng.Float64()))
		}
	}
	r, c := Equilibrate(a)
	for i := 0; i < n; i++ {
		var rowMax float64
		for j := 0; j < n; j++ {
			if v := math.Abs(a.At(i, j)) * r[i] * c[j]; v > rowMax {
				rowMax = v
			}
		}
		if rowMax < 0.5 || rowMax >= 2 {
			t.Fatalf("row %d max %.3g outside [0.5,2)", i, rowMax)
		}
	}
	// And ScaledLU must still solve the original system.
	s, err := NewScaledLU(a)
	if err != nil {
		t.Fatal(err)
	}
	b := a.MulVec(onesVec(n))
	x, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		// κ of the random scaled system is uncontrolled (~1e7 is typical), so
		// the unrefined solve only guarantees ~κ·eps; 1e-7 leaves rounding-path
		// headroom while still catching any scaling mistake (which would be
		// orders of magnitude worse).
		if math.Abs(x[i]-1) > 1e-7 {
			t.Fatalf("scaled solve x[%d] = %g, want 1", i, x[i])
		}
	}
}

func TestScaledLUCondDropsOnBadRowScaling(t *testing.T) {
	// A well-conditioned matrix wrecked by row scaling: raw κ₁ explodes,
	// the equilibrated factorisation's κ stays modest.
	n := 6
	a := Eye(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Add(i, j, 0.1)
		}
	}
	bad := a.Clone()
	for j := 0; j < n; j++ {
		bad.Data[0*n+j] *= 1e12
	}
	fRaw, err := NewLU(bad)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScaledLU(bad)
	if err != nil {
		t.Fatal(err)
	}
	if raw, eq := fRaw.Cond1Est(), s.f.Cond1Est(); eq > raw/1e6 {
		t.Fatalf("equilibration should slash κ: raw %.3g, equilibrated %.3g", raw, eq)
	}
}

func TestSolveRejectsNonFiniteRHS(t *testing.T) {
	a := Eye(3)
	f, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]float64{
		{1, math.NaN(), 3},
		{math.Inf(1), 2, 3},
	} {
		if _, err := f.Solve(bad); err == nil {
			t.Fatalf("LU.Solve must reject non-finite rhs %v", bad)
		}
		if _, err := Solve(a, bad); err == nil {
			t.Fatalf("mat.Solve must reject non-finite rhs %v", bad)
		}
	}
	cf, err := NewCLU(CEye(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cf.Solve([]complex128{complex(math.NaN(), 0), 1}); err == nil {
		t.Fatal("CLU.Solve must reject non-finite rhs")
	}
}

func onesVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}
