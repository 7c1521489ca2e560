package mat

import (
	"errors"
	"fmt"
	"math"

	"pdnsim/internal/simerr"
)

// ErrSingular is returned when a factorisation encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// SingularError is the concrete singular-matrix error: it records the pivot
// column at which Gaussian elimination found no usable pivot, letting
// higher layers map the dead unknown back to a named quantity (an MNA node,
// a mesh cell). It matches ErrSingular under errors.Is.
type SingularError struct {
	Col int // pivot column (unknown index) with no non-zero pivot
}

func (e *SingularError) Error() string {
	return fmt.Sprintf("mat: matrix is singular to working precision (pivot column %d)", e.Col)
}

// Is matches the package-level ErrSingular sentinel.
func (e *SingularError) Is(target error) bool { return target == ErrSingular }

// LU holds an LU factorisation with partial pivoting: P·A = L·U, stored
// compactly in lu (unit lower triangle implicit).
type LU struct {
	lu    *Matrix
	piv   []int
	sign  int
	norm1 float64 // 1-norm of the original matrix, for Cond1Est
}

// Blocked-factorisation geometry. Factorisations at or above luBlockMin
// unknowns run the right-looking blocked algorithm: panels of luPanel
// columns are factored with the classic BLAS-2 loop, then the trailing
// matrix is updated in one blocked, parallel GEMM (gemmAcc) instead of
// n rank-1 sweeps. Below luBlockMin the panel machinery costs more than it
// saves and the one-panel classic loop runs instead. Both paths choose
// identical pivots and apply each element's updates one term at a time in
// ascending-k order, so the blocked factor is bitwise identical to the
// classic one (see block.go's accumulation-order contract).
const (
	luPanel    = 48
	luBlockMin = 96
)

// luEquivRelTol is the documented equivalence bound between LU-based solves
// and historical sequential-substitution results on well-conditioned
// systems: the factor itself is bitwise stable across blocking and
// scheduling, but the substitutions use the unrolled multi-accumulator dot
// kernel, which reorders sums and shifts solutions by ulps. 1e-12 relative
// leaves orders of margin over that while still catching any real kernel
// defect. Golden equivalence tests enforce it.
const luEquivRelTol = 1e-12

// checkPivot classifies an unusable pivot magnitude: an exactly zero or NaN
// column is (numerically) singular; an Inf pivot means the matrix carried a
// non-finite entry (or overflowed during elimination) and proceeding would
// poison the whole factor, so it is rejected as bad input instead of being
// divided through silently.
func checkPivot(pmax float64, col int) error {
	if pmax == 0 || math.IsNaN(pmax) {
		return &SingularError{Col: col}
	}
	if math.IsInf(pmax, 0) {
		return simerr.Tagf(simerr.ErrBadInput, "mat: non-finite pivot (magnitude %g) in column %d", pmax, col)
	}
	return nil
}

// NewLU factors a square matrix with partial pivoting. The input is not
// modified. Large factorisations use the blocked parallel path (see
// luPanel/luBlockMin).
func NewLU(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mat: LU requires a square matrix")
	}
	n := a.Rows
	f := &LU{lu: a.Clone(), piv: make([]int, n), sign: 1, norm1: Norm1(a)}
	for i := range f.piv {
		f.piv[i] = i
	}
	var err error
	if n < luBlockMin {
		err = luFactorPanel(f, 0, n)
	} else {
		err = luFactorBlocked(f)
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// luFactorPanel runs the classic right-looking elimination on columns
// [k0, k1), updating only columns < k1 (the trailing block beyond k1 is the
// blocked caller's GEMM). With (0, n) it is the whole unblocked
// factorisation. Row swaps apply to full rows, as in the blocked algorithm.
func luFactorPanel(f *LU, k0, k1 int) error {
	n := f.lu.Rows
	lu := f.lu.Data
	for k := k0; k < k1; k++ {
		// Pivot: largest magnitude in column k at or below the diagonal.
		p, pmax := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i*n+k]); a > pmax {
				p, pmax = i, a
			}
		}
		if err := checkPivot(pmax, k); err != nil {
			return err
		}
		if p != k {
			rk := lu[k*n : (k+1)*n]
			rp := lu[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
			f.sign = -f.sign
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivot
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			axpy1(lu[i*n+k+1:i*n+k1], lu[k*n+k+1:k*n+k1], -m)
		}
	}
	return nil
}

// luFactorBlocked is the right-looking blocked factorisation: factor a
// luPanel-wide panel (BLAS-2), forward-substitute the panel's unit-lower
// factor through the U12 block, then apply one parallel GEMM to the
// trailing matrix.
func luFactorBlocked(f *LU) error {
	n := f.lu.Rows
	lu := f.lu.Data
	for k0 := 0; k0 < n; k0 += luPanel {
		k1 := minInt(k0+luPanel, n)
		if err := luFactorPanel(f, k0, k1); err != nil {
			return err
		}
		if k1 >= n {
			break
		}
		// U12 = L11⁻¹·A12: unit-lower forward substitution across the
		// columns right of the panel, parallel over column chunks (each
		// chunk runs the full triangular loop on disjoint columns).
		wide := n - k1
		nchunk := gemmBlocks(k1-k0, wide, k1-k0)
		chunk := (wide + nchunk - 1) / nchunk
		ParallelFor(nchunk, func(ci int) {
			c0 := k1 + ci*chunk
			c1 := minInt(c0+chunk, n)
			for k := k0; k < k1; k++ {
				rk := lu[k*n+c0 : k*n+c1]
				for i := k + 1; i < k1; i++ {
					m := lu[i*n+k]
					if m == 0 {
						continue
					}
					axpy1(lu[i*n+c0:i*n+c1], rk, -m)
				}
			}
		})
		// A22 -= L21·U12 (blocked, parallel, ascending-k per element).
		gemmAcc(lu[k1*n+k1:], n, lu[k1*n+k0:], n, lu[k0*n+k1:], n, n-k1, n-k1, k1-k0, true)
	}
	return nil
}

// Solve solves A·x = b for one right-hand side. Non-finite entries in b are
// rejected up front: a NaN right-hand side would otherwise propagate silently
// through the substitutions and poison every unknown.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows
	if len(b) != n {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mat: rhs length mismatch")
	}
	if err := checkFiniteRHS(b, 1); err != nil {
		return nil, err
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	lu := f.lu.Data
	// Forward substitution (unit lower).
	for i := 1; i < n; i++ {
		x[i] -= dot(lu[i*n:i*n+i], x[:i])
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := dot(lu[i*n+i+1:(i+1)*n], x[i+1:])
		d := lu[i*n+i]
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = (x[i] - s) / d
	}
	return x, nil
}

// SolveMatrix solves A·X = B for a matrix right-hand side with the blocked
// triangular solves (block.go): the pivoted rows of B, then the unit-lower
// and upper factors, over disjoint column chunks of B that run in parallel
// when the work is large enough.
func (f *LU) SolveMatrix(b *Matrix) (*Matrix, error) {
	n := f.lu.Rows
	if b.Rows != n {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mat: rhs row count mismatch")
	}
	if err := checkFiniteRHS(b.Data, b.Cols); err != nil {
		return nil, err
	}
	m := b.Cols
	x := New(n, m)
	for i, p := range f.piv {
		copy(x.Data[i*m:(i+1)*m], b.Data[p*m:(p+1)*m])
	}
	lu := f.lu.Data
	forColumnChunks(n, m, func(c0, c1 int) {
		triSolve(lu, n, 1, x.Data[c0:], m, n, c1-c0, false, true)
		triSolve(lu, n, 1, x.Data[c0:], m, n, c1-c0, true, false)
	})
	return x, nil
}

// checkFiniteRHS rejects a right-hand side holding NaN or Inf (row-major,
// cols wide): it would otherwise propagate silently through the
// substitutions and poison every unknown.
func checkFiniteRHS(b []float64, cols int) error {
	for i, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return simerr.Tagf(simerr.ErrBadInput, "mat: non-finite right-hand side entry %g at row %d, column %d", v, i/cols, i%cols)
		}
	}
	return nil
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	n := f.lu.Rows
	d := float64(f.sign)
	for i := 0; i < n; i++ {
		d *= f.lu.Data[i*n+i]
	}
	return d
}

// Solve solves A·x = b by LU factorisation (convenience, one-shot).
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := NewLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Inverse returns A⁻¹ computed by LU factorisation.
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := NewLU(a)
	if err != nil {
		return nil, err
	}
	return f.SolveMatrix(Eye(a.Rows))
}
