package mat

import (
	"context"
	"errors"
	"math"
	"testing"

	"pdnsim/internal/simerr"
)

// The solve layer's errors are part of its contract: every failure must
// carry a simerr class reachable through errors.Is, and tagging an error
// with a class must not change its user-visible text (the CLI asserts on
// exact messages).

func TestCGBreakdownIsSingularClass(t *testing.T) {
	// Indefinite with a positive diagonal (so the Jacobi preconditioner
	// accepts it): eigenvalues 3 and −1 drive pᵀ·A·p ≤ 0 immediately.
	a := New(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 1)
	_, err := denseCG(context.Background(), a, []float64{1, -1}, 0, 0)
	if !errors.Is(err, simerr.ErrSingular) {
		t.Fatalf("CG breakdown must be ErrSingular-class, got %v", err)
	}
	if errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("CG breakdown must not cross-match ErrBadInput: %v", err)
	}
}

func TestCGNonConvergenceClass(t *testing.T) {
	// An SPD 3×3 with three distinct eigenvalues and a general rhs needs
	// three CG iterations to reach 1e-14; one is not enough.
	a := New(3, 3)
	for i := 0; i < 3; i++ {
		a.Set(i, i, 2)
	}
	a.Set(0, 1, -1)
	a.Set(1, 0, -1)
	a.Set(1, 2, -1)
	a.Set(2, 1, -1)
	_, err := denseCG(context.Background(), a, []float64{1, 0, 0}, 1e-14, 1)
	if !errors.Is(err, simerr.ErrNonConvergence) {
		t.Fatalf("CG iteration exhaustion must be ErrNonConvergence-class, got %v", err)
	}
}

func TestJacobiEigenBadInputClass(t *testing.T) {
	if _, _, err := JacobiEigen(New(2, 3)); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("non-square JacobiEigen must be ErrBadInput-class, got %v", err)
	}
	asym := New(2, 2)
	asym.Set(0, 1, 1)
	if _, _, err := JacobiEigen(asym); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("asymmetric JacobiEigen must be ErrBadInput-class, got %v", err)
	}
}

// TestLUInfPivotBadInputClass fault-injects an Inf entry into the pivot
// column: before the fix, checkPivot let an infinite pivot magnitude pass
// (it only rejected zero and NaN), and the division by Inf silently zeroed
// the eliminated column. A non-finite pivot must be refused as
// ErrBadInput-class, distinct from the ErrSingular path.
func TestLUInfPivotBadInputClass(t *testing.T) {
	for _, n := range []int{4, 130} { // classic and blocked paths
		a := Eye(n)
		a.Set(2, 2, math.Inf(1))
		_, err := NewLU(a)
		if !errors.Is(err, simerr.ErrBadInput) {
			t.Fatalf("n=%d: Inf pivot must be ErrBadInput-class, got %v", n, err)
		}
		if errors.Is(err, ErrSingular) {
			t.Fatalf("n=%d: Inf pivot must not be classified singular: %v", n, err)
		}
	}
}

// TestLUNaNPivotSingularClass: a NaN-poisoned column has no usable pivot
// and keeps its historical ErrSingular classification with the column index.
func TestLUNaNPivotSingularClass(t *testing.T) {
	a := Eye(4)
	a.Set(1, 1, math.NaN())
	_, err := NewLU(a)
	var se *SingularError
	if !errors.As(err, &se) || se.Col != 1 {
		t.Fatalf("NaN pivot must be SingularError with the column, got %v", err)
	}
}

// TestCLUInfPivotBadInputClass is the complex analogue of the Inf-pivot
// fault injection.
func TestCLUInfPivotBadInputClass(t *testing.T) {
	for _, n := range []int{4, 130} {
		a := CEye(n)
		a.Set(2, 2, complex(math.Inf(1), 0))
		_, err := NewCLU(a)
		if !errors.Is(err, simerr.ErrBadInput) {
			t.Fatalf("n=%d: Inf pivot must be ErrBadInput-class, got %v", n, err)
		}
		if errors.Is(err, ErrSingular) {
			t.Fatalf("n=%d: Inf pivot must not be classified singular: %v", n, err)
		}
	}
}
