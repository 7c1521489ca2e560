// Block-Toeplitz operators: the structure-preserving product behind the
// superlinear solve path (DESIGN.md §5l). On a uniform grid the BEM kernel
// integrals depend only on the integer grid offset between two elements, so
// the cells×cells potential matrix P (and each same-direction block of the
// partial-inductance matrix L) is a two-level symmetric Toeplitz matrix,
// fully described by one kernel table of nx·ny numbers. ToeplitzOp stores
// that table and applies the matrix in O(n log n) by embedding it in a
// circulant of padded power-of-two size and diagonalising the circulant
// with the FFT (fft.go): scatter → FFT → pointwise spectrum multiply →
// inverse FFT → gather. Elements need not fill the bounding grid — an
// L-shaped plane scatters into the grid and gathers back, which is exactly
// the principal-submatrix structure of its dense fill.
package mat

import (
	"math"
	"math/cmplx"

	"pdnsim/internal/simerr"
)

// circulantPrecondMinRel is the positivity guard for the circulant
// preconditioner: the embedded spectrum is used as a preconditioner only if
// its smallest real part exceeds this fraction of the largest. The
// embedding of a positive-definite Toeplitz matrix is not itself guaranteed
// positive definite; a crossing or near-zero spectrum would make M⁻¹
// indefinite and break CG, so such operators simply run unpreconditioned.
const circulantPrecondMinRel = 1e-12

// ToeplitzOp is a symmetric two-level (block) Toeplitz matrix applied via
// FFT. Entry (i,j) equals table[|iy_i−iy_j|·nx + |ix_i−ix_j|] for the grid
// coordinates registered per unknown. The operator is deterministic: for a
// fixed size the matvec performs an identical floating-point sequence on
// every call. MulVecTo reuses preplanned scratch and performs no
// allocation; the scratch is shared, so a ToeplitzOp must not be used from
// multiple goroutines concurrently (clone one per worker instead).
type ToeplitzOp struct {
	nx, ny  int   // bounding grid dims (= kernel table dims)
	n       int   // number of unknowns (grid subset size)
	scatter []int // per unknown: position in the padded grid
	px, py  int   // padded circulant dims (powers of two)

	table []float64    // kernel table, ny×nx row-major (retained for Dense/Clone)
	spec  []complex128 // circulant spectrum pre-scaled by 1/(px·py)
	plan  *fftPlan2D
	work  []complex128

	pinv  []complex128 // inverse-spectrum table for the preconditioner; nil if unusable
	pwork []complex128
}

// NewToeplitzOp builds the operator for the given bounding grid dims, the
// ny×nx kernel table t (t[dy·nx+dx] is the entry for grid offset (dx,dy)),
// and the grid coordinates of each unknown. Coordinates must lie in
// [0,nx)×[0,ny) and be distinct (two unknowns on one grid point would share
// a scatter slot); unknowns are addressed in the order given.
func NewToeplitzOp(nx, ny int, table []float64, coords [][2]int) (*ToeplitzOp, error) {
	if nx <= 0 || ny <= 0 || len(table) != nx*ny {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mat: Toeplitz kernel table is %d entries, want %d×%d", len(table), nx, ny)
	}
	if len(coords) == 0 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mat: Toeplitz operator needs at least one unknown")
	}
	op := &ToeplitzOp{nx: nx, ny: ny, n: len(coords), table: append([]float64(nil), table...)}
	op.px = nextPow2(2*nx - 1)
	op.py = nextPow2(2*ny - 1)
	op.scatter = make([]int, len(coords))
	owner := make([]int32, op.px*op.py) // 1 + the unknown scattered to each padded-grid cell
	for i, c := range coords {
		ix, iy := c[0], c[1]
		if ix < 0 || ix >= nx || iy < 0 || iy >= ny {
			return nil, simerr.Tagf(simerr.ErrBadInput, "mat: Toeplitz unknown %d at grid (%d,%d) outside %d×%d", i, ix, iy, nx, ny)
		}
		s := iy*op.px + ix
		if o := owner[s]; o != 0 {
			return nil, simerr.Tagf(simerr.ErrBadInput, "mat: Toeplitz unknowns %d and %d share grid (%d,%d)", o-1, i, ix, iy)
		}
		owner[s] = int32(i + 1)
		op.scatter[i] = s
	}
	op.plan = newFFTPlan2D(op.px, op.py)
	op.work = make([]complex128, op.px*op.py)
	op.pwork = make([]complex128, op.px*op.py)

	// Embed the symmetric kernel in a circulant: offset dx appears at
	// padded index dx and (wrapping) px−dx, so circular convolution over the
	// padding reproduces the linear two-level Toeplitz product exactly for
	// indices inside the grid.
	emb := make([]complex128, op.px*op.py)
	for qy := 0; qy < op.py; qy++ {
		dy, oky := wrapOffset(qy, op.py, ny)
		if !oky {
			continue
		}
		for qx := 0; qx < op.px; qx++ {
			dx, okx := wrapOffset(qx, op.px, nx)
			if !okx {
				continue
			}
			emb[qy*op.px+qx] = complex(table[dy*nx+dx], 0)
		}
	}
	op.plan.forward(emb, op.py)
	scale := 1 / float64(op.px*op.py)
	op.spec = emb
	minRe, maxRe := real(op.spec[0]), real(op.spec[0])
	for i := range op.spec {
		if re := real(op.spec[i]); re < minRe {
			minRe = re
		} else if re > maxRe {
			maxRe = re
		}
	}
	// Inverse spectrum for the circulant preconditioner, only when the
	// embedding is safely positive definite.
	if minRe > circulantPrecondMinRel*maxRe {
		op.pinv = make([]complex128, len(op.spec))
		for i := range op.spec {
			op.pinv[i] = complex(scale/real(op.spec[i]), 0)
		}
	}
	for i := range op.spec {
		op.spec[i] *= complex(scale, 0)
	}
	return op, nil
}

// wrapOffset maps a padded circulant index q to the kernel offset it
// represents: q itself for 0 ≤ q < dim, p−q for the wrapped negative
// offsets, and "no entry" for the zero padding in between.
func wrapOffset(q, p, dim int) (int, bool) {
	if q < dim {
		return q, true
	}
	if d := p - q; d > 0 && d < dim {
		return d, true
	}
	return 0, false
}

// Size returns the number of unknowns.
func (op *ToeplitzOp) Size() int { return op.n }

// GridDims returns the bounding grid dimensions of the kernel table.
func (op *ToeplitzOp) GridDims() (nx, ny int) { return op.nx, op.ny }

// DiagValue returns the (constant) diagonal entry of the operator.
func (op *ToeplitzOp) DiagValue() float64 { return op.table[0] }

// HasPreconditioner reports whether the circulant-inverse preconditioner is
// available (the embedded spectrum is safely positive).
func (op *ToeplitzOp) HasPreconditioner() bool { return op.pinv != nil }

// Clone returns an independent operator sharing the immutable tables
// (spectrum, plan, scatter) but with private scratch, for use on another
// goroutine.
func (op *ToeplitzOp) Clone() *ToeplitzOp {
	cp := *op
	cp.work = make([]complex128, len(op.work))
	cp.pwork = make([]complex128, len(op.pwork))
	return &cp
}

// MulVecTo computes dst = T·x without allocating. len(dst) and len(x) must
// equal Size(). Not safe for concurrent use (shared scratch).
//
//pdn:hot
func (op *ToeplitzOp) MulVecTo(dst, x []float64) {
	if len(dst) != op.n || len(x) != op.n {
		panic("mat: ToeplitzOp.MulVecTo dimension mismatch")
	}
	op.convolve(dst, x, op.spec, op.work)
}

// MulVec returns T·x as a new vector.
func (op *ToeplitzOp) MulVec(x []float64) []float64 {
	dst := make([]float64, op.n)
	op.MulVecTo(dst, x)
	return dst
}

// PrecondTo applies the circulant-inverse preconditioner dst ≈ T⁻¹·r (the
// classic Strang-style circulant preconditioner restricted to the grid
// subset: an SPD spectral approximation that clusters CG's spectrum). Falls
// back to plain Jacobi scaling when HasPreconditioner is false.
//
//pdn:hot
func (op *ToeplitzOp) PrecondTo(dst, r []float64) {
	if op.pinv == nil {
		d := 1 / op.table[0]
		for i := range r {
			dst[i] = d * r[i]
		}
		return
	}
	op.convolve(dst, r, op.pinv, op.pwork)
}

// convolve computes dst = gather(IFFT(spec ⊙ FFT(scatter(x)))) in the
// scratch grid w. Only the first ny rows of the scatter are nonzero and only
// the leading nx×ny block is gathered, so the 2-D transforms skip the rest
// (fft.go).
//
//pdn:hot
func (op *ToeplitzOp) convolve(dst, x []float64, spec, w []complex128) {
	clear(w)
	for i, s := range op.scatter {
		w[s] = complex(x[i], 0)
	}
	op.plan.forward(w, op.ny)
	spec = spec[:len(w)]
	for i := range w {
		w[i] *= spec[i]
	}
	op.plan.inverse(w, op.nx, op.ny)
	for i, s := range op.scatter {
		dst[i] = real(w[s])
	}
}

// Dense materialises the operator as a dense matrix (tests and the dense
// fallback path; O(n²)).
func (op *ToeplitzOp) Dense() *Matrix {
	m := New(op.n, op.n)
	for i := 0; i < op.n; i++ {
		iy, ix := op.scatter[i]/op.px, op.scatter[i]%op.px
		for j := 0; j < op.n; j++ {
			jy, jx := op.scatter[j]/op.px, op.scatter[j]%op.px
			dx, dy := ix-jx, iy-jy
			if dx < 0 {
				dx = -dx
			}
			if dy < 0 {
				dy = -dy
			}
			m.Set(i, j, op.table[dy*op.nx+dx])
		}
	}
	return m
}

// SpectrumCond returns the ratio of largest to smallest spectrum magnitude
// of the circulant embedding — an inexpensive upper-bound style conditioning
// indicator for diagnostics (the true Toeplitz κ is bounded by related
// quantities; this is reported as a hint, not a guarantee).
func (op *ToeplitzOp) SpectrumCond() float64 {
	minA, maxA := cmplx.Abs(op.spec[0]), cmplx.Abs(op.spec[0])
	for _, s := range op.spec {
		a := cmplx.Abs(s)
		if a < minA {
			minA = a
		} else if a > maxA {
			maxA = a
		}
	}
	if minA == 0 {
		return math.Inf(1)
	}
	return maxA / minA
}
