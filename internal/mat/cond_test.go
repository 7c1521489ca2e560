package mat

import (
	"math"
	"math/rand"
	"testing"
)

// trueCond1 computes ‖A‖₁·‖A⁻¹‖₁ with an explicitly formed inverse — the
// reference the estimator is judged against (accurate to ~κ·u, plenty for a
// 10× acceptance band).
func trueCond1(t *testing.T, a *Matrix) float64 {
	t.Helper()
	inv, err := Inverse(a)
	if err != nil {
		t.Fatalf("reference inverse: %v", err)
	}
	return Norm1(a) * Norm1(inv)
}

func checkCondWithin10x(t *testing.T, name string, a *Matrix) {
	t.Helper()
	f, err := NewLU(a)
	if err != nil {
		t.Fatalf("%s: factor: %v", name, err)
	}
	est := f.Cond1Est()
	want := trueCond1(t, a)
	if est < want/10 || est > want*10 {
		t.Fatalf("%s: Cond1Est = %.3g, true κ₁ = %.3g (outside 10× band)", name, est, want)
	}
}

func TestCond1EstDiagonal(t *testing.T) {
	// κ₁ of a diagonal matrix is exactly max/min — the estimator must nail
	// it across 12 orders of magnitude.
	for _, span := range []float64{1, 1e3, 1e6, 1e12} {
		n := 6
		a := New(n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, math.Pow(span, float64(i)/float64(n-1)))
		}
		checkCondWithin10x(t, "diagonal", a)
	}
}

func TestCond1EstHilbert(t *testing.T) {
	// The classic ill-conditioned family: κ₁(H_n) grows like e^{3.5n}.
	for _, n := range []int{4, 6, 8} {
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, 1/float64(i+j+1))
			}
		}
		checkCondWithin10x(t, "hilbert", a)
	}
}

func TestCond1EstRandomWellConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(12)
		a := New(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)) // diagonally dominant ⇒ modest κ
		}
		checkCondWithin10x(t, "random", a)
	}
}

func TestCond1EstSingularIsInf(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4.0000000000000005}})
	f, err := NewLU(a)
	if err != nil {
		// Exactly singular to the factorisation: also acceptable.
		return
	}
	if est := f.Cond1Est(); est < 1e14 {
		t.Fatalf("near-singular matrix must estimate huge κ, got %g", est)
	}
}

func TestSolveTMatchesTransposedSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 9
	a := New(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	f, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.SolveT(b)
	if err != nil {
		t.Fatal(err)
	}
	// Check Aᵀ·x = b directly.
	for j := 0; j < n; j++ {
		var s float64
		for i := 0; i < n; i++ {
			s += a.At(i, j) * x[i]
		}
		if math.Abs(s-b[j]) > 1e-9*(1+math.Abs(b[j])) {
			t.Fatalf("Aᵀx ≠ b at row %d: %g vs %g", j, s, b[j])
		}
	}
}
