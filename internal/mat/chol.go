package mat

import (
	"errors"
	"math"

	"pdnsim/internal/simerr"
)

// ErrNotPositiveDefinite is returned by the Cholesky factorisation when the
// input matrix has a non-positive pivot.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L with A = L·Lᵀ.
type Cholesky struct {
	l *Matrix
}

// cholPanel is the panel width of the blocked right-looking factorisation:
// columns are factored cholPanel at a time, then the trailing matrix takes
// one parallel symmetric rank-k update (syrkSubLower) instead of a
// column-at-a-time sweep. Sized like luPanel for the same cache reasons.
const cholPanel = 48

// NewCholesky factors a symmetric positive-definite matrix with a blocked
// right-looking algorithm. Only the lower triangle of a is read; the input
// is not modified. The trailing updates subtract earlier panels' terms one
// at a time in ascending order, as the classic left-looking loop does; only
// the terms inside the current panel go through the dot kernel's
// multi-accumulator reordering, so factors agree with the classic ones to
// ulps (see luEquivRelTol and DESIGN.md §5g).
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mat: Cholesky requires a square matrix")
	}
	n := a.Rows
	l := New(n, n)
	ld := l.Data
	// Copy the lower triangle; the factorisation runs in place on l, so the
	// strict upper triangle stays zero.
	for i := 0; i < n; i++ {
		copy(ld[i*n:i*n+i+1], a.Data[i*n:i*n+i+1])
	}
	// Transposed-panel scratch of the trailing update, reused by every panel.
	panelT := make([]float64, cholPanel*maxInt(n-cholPanel, 0))
	for k0 := 0; k0 < n; k0 += cholPanel {
		k1 := minInt(k0+cholPanel, n)
		// Factor the diagonal block: left-looking within the panel (all
		// earlier panels have already been applied by the rank-k updates).
		for j := k0; j < k1; j++ {
			s := ld[j*n+j] - dot(ld[j*n+k0:j*n+j], ld[j*n+k0:j*n+j])
			if s <= 0 {
				return nil, ErrNotPositiveDefinite
			}
			d := math.Sqrt(s)
			ld[j*n+j] = d
			for i := j + 1; i < k1; i++ {
				t := ld[i*n+j] - dot(ld[i*n+k0:i*n+j], ld[j*n+k0:j*n+j])
				ld[i*n+j] = t / d
			}
		}
		if k1 >= n {
			break
		}
		// Panel below the diagonal block: each row is independent.
		below := n - k1
		solveRows := func(r0, r1 int) {
			for i := r0; i < r1; i++ {
				for j := k0; j < k1; j++ {
					t := ld[i*n+j] - dot(ld[i*n+k0:i*n+j], ld[j*n+k0:j*n+j])
					ld[i*n+j] = t / ld[j*n+j]
				}
			}
		}
		if nblk := gemmBlocks(below, k1-k0, k1-k0); nblk == 1 {
			solveRows(k1, n)
		} else {
			ParallelFor(nblk, func(bi int) {
				r0 := k1 + bi*gemmRowBlock
				solveRows(r0, minInt(r0+gemmRowBlock, n))
			})
		}
		// Trailing update: C -= L21·L21ᵀ on the lower triangle.
		syrkSubLower(ld[k1*n+k1:], n, ld[k1*n+k0:], n, below, k1-k0, panelT)
	}
	return &Cholesky{l: l}, nil
}

// L returns (a copy of) the lower-triangular factor.
func (c *Cholesky) L() *Matrix { return c.l.Clone() }

// Solve solves A·x = b using the factorisation. Non-finite entries in b are
// rejected up front, as in LU.Solve.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	n := c.l.Rows
	if len(b) != n {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mat: rhs length mismatch")
	}
	if err := checkFiniteRHS(b, 1); err != nil {
		return nil, err
	}
	ld := c.l.Data
	x := make([]float64, n)
	copy(x, b)
	// L·y = b
	for i := 0; i < n; i++ {
		s := x[i]
		row := ld[i*n : i*n+i]
		for j, v := range row {
			s -= v * x[j]
		}
		x[i] = s / ld[i*n+i]
	}
	// Lᵀ·x = y
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= ld[j*n+i] * x[j]
		}
		x[i] = s / ld[i*n+i]
	}
	return x, nil
}

// SolveMatrix solves A·X = B with the blocked triangular solves (block.go):
// L·Y = B, then Lᵀ·X = Y reading the factor's rows as its transpose, over
// disjoint column chunks of B that run in parallel when the work is large
// enough.
func (c *Cholesky) SolveMatrix(b *Matrix) (*Matrix, error) {
	return c.solve(b, true)
}

// SolveLower is the forward half of SolveMatrix: it returns Y = L⁻¹·B, so
// that Bᵀ·A⁻¹·B = YᵀY (see Gram).
func (c *Cholesky) SolveLower(b *Matrix) (*Matrix, error) {
	return c.solve(b, false)
}

func (c *Cholesky) solve(b *Matrix, back bool) (*Matrix, error) {
	n := c.l.Rows
	if b.Rows != n {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mat: rhs row count mismatch")
	}
	if err := checkFiniteRHS(b.Data, b.Cols); err != nil {
		return nil, err
	}
	x := b.Clone()
	ld, m := c.l.Data, x.Cols
	forColumnChunks(n, m, func(c0, c1 int) {
		triSolve(ld, n, 1, x.Data[c0:], m, n, c1-c0, false, false)
		if back {
			triSolve(ld, 1, n, x.Data[c0:], m, n, c1-c0, true, false)
		}
	})
	return x, nil
}

// SolveSPD solves A·X = B for a symmetric positive-definite A by Cholesky,
// falling back to LU if the factorisation fails (e.g. slight asymmetry from
// numerical assembly).
func SolveSPD(a, b *Matrix) (*Matrix, error) {
	if ch, err := NewCholesky(a); err == nil {
		return ch.SolveMatrix(b)
	}
	f, err := NewLU(a)
	if err != nil {
		return nil, err
	}
	return f.SolveMatrix(b)
}

// InverseSPD returns A⁻¹ for a symmetric positive-definite A (SolveSPD
// against the identity).
func InverseSPD(a *Matrix) (*Matrix, error) {
	return SolveSPD(a, Eye(a.Rows))
}
