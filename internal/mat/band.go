// Banded symmetric positive-definite Cholesky factorisation. Every grid
// Laplacian of the pipeline is factored here: the projector S = A_I·A_Iᵀ of
// the operator path's projected CG, the internal conductance block that
// both reduction paths Schur-reduce, and the grounded conductance Laplacian
// of the IR-drop solve. Over raster-ordered cells (mesh.BandLaplacian packs
// them) their bandwidth is the grid row length, so a banded factorisation
// costs O(n·bw²) instead of O(n³) and each solve costs O(n·bw) — cheap
// enough to run inside every CG projection step.
package mat

import (
	"math"

	"pdnsim/internal/simerr"
)

// BandCholesky is the lower-triangular Cholesky factor of a symmetric
// positive-definite band matrix, stored packed: l[i*(bw+1)+d] holds
// L[i][i−d] for 0 ≤ d ≤ min(i, bw).
type BandCholesky struct {
	n  int
	bw int // number of sub-diagonals kept
	l  []float64
}

// NewBandCholesky factors the symmetric band matrix whose packed lower
// storage is a[i*(bw+1)+d] = A[i][i−d] (d = 0 is the diagonal). Entries
// beyond the band are treated as exact zeros. Returns ErrSingular when a
// pivot is not strictly positive, i.e. the matrix is not positive definite
// within the band.
func NewBandCholesky(n, bw int, a []float64) (*BandCholesky, error) {
	if n <= 0 || bw < 0 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mat: band Cholesky needs n > 0, bw >= 0 (got n=%d bw=%d)", n, bw)
	}
	w := bw + 1
	if len(a) != n*w {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mat: band Cholesky packed storage is %d entries, want %d", len(a), n*w)
	}
	c := &BandCholesky{n: n, bw: bw, l: append([]float64(nil), a...)}
	l := c.l
	for i := 0; i < n; i++ {
		lo := i - bw
		if lo < 0 {
			lo = 0
		}
		// Off-diagonal row entries L[i][j], j = lo..i-1.
		for j := lo; j < i; j++ {
			s := l[i*w+(i-j)]
			// Overlap of rows i and j within the band.
			klo := i - bw
			if jlo := j - bw; jlo > klo {
				klo = jlo
			}
			if klo < 0 {
				klo = 0
			}
			for k := klo; k < j; k++ {
				s -= l[i*w+(i-k)] * l[j*w+(j-k)]
			}
			l[i*w+(i-j)] = s / l[j*w]
		}
		// Diagonal pivot.
		s := l[i*w]
		for k := lo; k < i; k++ {
			v := l[i*w+(i-k)]
			s -= v * v
		}
		if s <= 0 || math.IsNaN(s) {
			return nil, simerr.Tagf(simerr.ErrSingular, "mat: band Cholesky pivot %g at row %d; matrix not positive definite", s, i)
		}
		l[i*w] = math.Sqrt(s)
	}
	return c, nil
}

// SolveTo solves A·x = b in place of dst (dst and b may alias). Forward
// substitution with L, then back substitution with Lᵀ; O(n·bw) and
// allocation-free, so it is safe to call from the CG projection inner loop.
//
//pdn:hot
func (c *BandCholesky) SolveTo(dst, b []float64) {
	if len(dst) != c.n || len(b) != c.n {
		panic("mat: BandCholesky.SolveTo dimension mismatch")
	}
	n, bw, w, l := c.n, c.bw, c.bw+1, c.l
	if &dst[0] != &b[0] {
		copy(dst, b)
	}
	for i := 0; i < n; i++ {
		s := dst[i]
		lo := i - bw
		if lo < 0 {
			lo = 0
		}
		for k := lo; k < i; k++ {
			s -= l[i*w+(i-k)] * dst[k]
		}
		dst[i] = s / l[i*w]
	}
	for i := n - 1; i >= 0; i-- {
		s := dst[i] / l[i*w]
		dst[i] = s
		lo := i - bw
		if lo < 0 {
			lo = 0
		}
		for k := lo; k < i; k++ {
			dst[k] -= l[i*w+(i-k)] * s
		}
	}
}
