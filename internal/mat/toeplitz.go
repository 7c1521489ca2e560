// Block-Toeplitz operators: the structure-preserving product behind the
// superlinear solve path (DESIGN.md §5l). On a uniform grid the BEM kernel
// integrals depend only on the integer grid offset between two elements, so
// the cells×cells potential matrix P (and each same-direction block of the
// partial-inductance matrix L) is a two-level symmetric Toeplitz matrix,
// fully described by one kernel table of nx·ny numbers. ToeplitzOp stores
// that table and applies the matrix in O(n log n) by embedding it in a
// circulant and diagonalising the circulant with the FFT (fft.go): scatter
// → FFT → pointwise spectrum multiply → inverse FFT → gather. Each axis of
// n grid points is padded to the smallest even 2ᵃ·3ᵇ ≥ 2n−1, the least
// the embedding needs that the FFT supports: a 39×35 grid pads to 96×72,
// where the next power of two would make it 128×128. The input is real and
// the embedding is even in each axis, so its spectrum is real and even: the
// operator keeps it on the real-data transform's half grid (py rows of
// px/2+1 reals), and an apply multiplies the input's half spectrum by it.
// Elements need not fill the bounding grid — an L-shaped plane scatters
// into the grid and gathers back, which is exactly the principal-submatrix
// structure of its dense fill.
//
// MulVecTo and the circulant branch of PrecondTo equal the unpruned
// real-data algorithm bitwise (TestToeplitzPrunedFFTMatchesReference), and
// the full complex transform to a few ulps of the largest output.
package mat

import "pdnsim/internal/simerr"

// circulantPrecondMinRel is the positivity guard for the circulant
// preconditioner: the embedded spectrum is used as a preconditioner only if
// its smallest value exceeds this fraction of the largest. The embedding of
// a positive-definite Toeplitz matrix is not itself guaranteed positive
// definite; a crossing or near-zero spectrum would make M⁻¹ indefinite and
// break CG, so such operators simply run unpreconditioned.
const circulantPrecondMinRel = 1e-12

// ToeplitzOp is a symmetric two-level (block) Toeplitz matrix applied via
// FFT. Entry (i,j) equals table[|iy_i−iy_j|·nx + |ix_i−ix_j|] for the grid
// coordinates registered per unknown. The operator is deterministic: for a
// fixed size an apply performs an identical floating-point sequence on
// every call. MulVecTo and PrecondTo reuse preplanned scratch and perform
// no allocation; the scratch is shared, so a ToeplitzOp must not be used
// from multiple goroutines concurrently (clone one per worker instead).
type ToeplitzOp struct {
	nx, ny int     // bounding grid dims (= kernel table dims)
	n      int     // number of unknowns (grid subset size)
	slot   []int32 // per grid point iy·nx+ix: 1 + the unknown there, 0 if none
	px, py int     // padded circulant dims (fftSize(2n−1) per axis)
	rows   int     // half-grid rows an apply's row pass writes: ny rounded up to even, at most py

	table []float64 // kernel table, ny×nx row-major (diagonal for Jacobi; tests)
	spec  []float64 // half-grid circulant spectrum, pre-scaled by 1/(2·px·py)
	pinv  []float64 // half-grid inverse spectrum for the preconditioner, same scale; nil if unusable
	plan  *fftPlan2D

	grid []complex128 // half-grid scratch, py rows of px/2+1: the forward column pass
	prod []complex128 // the same for the spectrum product and the inverse column pass
	row  []complex128 // packed row-pair scratch, px long
}

// NewToeplitzOp builds the operator for the given bounding grid dims, the
// ny×nx kernel table t (t[dy·nx+dx] is the entry for grid offset (dx,dy)),
// and the grid coordinates of each unknown. Coordinates must lie in
// [0,nx)×[0,ny) and be distinct (two unknowns on one grid point would share
// a grid slot); unknowns are addressed in the order given.
func NewToeplitzOp(nx, ny int, table []float64, coords [][2]int) (*ToeplitzOp, error) {
	if nx <= 0 || ny <= 0 || len(table) != nx*ny {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mat: Toeplitz kernel table is %d entries, want %d×%d", len(table), nx, ny)
	}
	if len(coords) == 0 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mat: Toeplitz operator needs at least one unknown")
	}
	op := &ToeplitzOp{nx: nx, ny: ny, n: len(coords), table: append([]float64(nil), table...)}
	op.px = fftSize(2*nx - 1)
	op.py = fftSize(2*ny - 1)
	op.rows = min(op.py, ny+ny%2)
	op.slot = make([]int32, nx*ny)
	for i, c := range coords {
		ix, iy := c[0], c[1]
		if ix < 0 || ix >= nx || iy < 0 || iy >= ny {
			return nil, simerr.Tagf(simerr.ErrBadInput, "mat: Toeplitz unknown %d at grid (%d,%d) outside %d×%d", i, ix, iy, nx, ny)
		}
		s := &op.slot[iy*nx+ix]
		if *s != 0 {
			return nil, simerr.Tagf(simerr.ErrBadInput, "mat: Toeplitz unknowns %d and %d share grid (%d,%d)", *s-1, i, ix, iy)
		}
		*s = int32(i + 1)
	}
	p := newFFTPlan2D(op.px, op.py)
	op.plan = p
	op.grid = make([]complex128, op.py*p.hw)
	op.prod = make([]complex128, len(op.grid))
	op.row = make([]complex128, op.px)

	// Embed the symmetric kernel in a circulant: offset dx appears at
	// padded index dx and (wrapping) px−dx, so circular convolution over the
	// padding reproduces the linear two-level Toeplitz product exactly for
	// indices inside the grid. The embedding is even in each axis, so its
	// spectrum is real (and even); the imaginary parts the transform leaves
	// are roundoff and are dropped.
	g, z := op.grid, op.row
	for qy := 0; qy < op.py; qy += 2 {
		for qx, k := range p.row.at {
			z[k] = complex(op.embedded(qx, qy), op.embedded(qx, qy+1))
		}
		p.row.transform(z, op.px, &p.row.fwd)
		p.splitRows(p.line(g, int(p.col.at[qy])), p.line(g, int(p.col.at[qy+1])), z)
	}
	p.col.columns(g, p.hw, p.hw, op.py, &p.col.fwd)
	op.spec = make([]float64, len(g))
	for i := range g {
		op.spec[i] = real(g[i]) / 2 // splitRows leaves twice the spectrum
	}
	minS, maxS := op.spec[0], op.spec[0]
	for _, s := range op.spec {
		minS, maxS = min(minS, s), max(maxS, s)
	}
	// An apply's half grid holds twice the input's spectrum (splitRows) and
	// its inverse transforms are unscaled; both factors fold into the
	// pointwise multiply.
	scale := 1 / float64(2*op.px*op.py)
	// Inverse spectrum for the circulant preconditioner, only when the
	// embedding is safely positive definite.
	if minS > circulantPrecondMinRel*maxS {
		op.pinv = make([]float64, len(op.spec))
		for i, s := range op.spec {
			op.pinv[i] = scale / s
		}
	}
	for i := range op.spec {
		op.spec[i] *= scale
	}
	return op, nil
}

// embedded returns entry (qx, qy) of the circulant embedding of the kernel
// table, 0 in the padding and past the last padded row.
func (op *ToeplitzOp) embedded(qx, qy int) float64 {
	dx, okx := wrapOffset(qx, op.px, op.nx)
	dy, oky := wrapOffset(qy, op.py, op.ny)
	if !okx || !oky {
		return 0
	}
	return op.table[dy*op.nx+dx]
}

// wrapOffset maps a padded circulant index q to the kernel offset it
// represents: q itself for 0 ≤ q < dim, p−q for the wrapped negative
// offsets, and "no entry" for the zero padding in between (and for q ≥ p).
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

// PaddedDims returns the padded circulant grid (px×py) the FFT runs on.
func (op *ToeplitzOp) PaddedDims() (px, py int) { return op.px, op.py }

// HasPreconditioner reports whether the circulant-inverse preconditioner is
// available (the embedded spectrum is safely positive).
func (op *ToeplitzOp) HasPreconditioner() bool { return op.pinv != nil }

// Clone returns an independent operator sharing the immutable tables
// (spectra, plan, slots) but with private scratch, for use on another
// goroutine.
func (op *ToeplitzOp) Clone() *ToeplitzOp {
	cp := *op
	cp.grid = make([]complex128, len(op.grid))
	cp.prod = make([]complex128, len(op.prod))
	cp.row = make([]complex128, len(op.row))
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
	op.convolve(dst, x, op.spec)
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
	op.convolve(dst, r, op.pinv)
}

// convolve computes dst = gather(IFFT(spec ⊙ FFT(scatter(x)))) with the
// real-data transform (fft.go). Grid rows r and r+1 travel as one packed
// complex row: rows < ny hold the input, so only their pairs are row
// transformed, and the rest of the half grid is +0. The column passes run
// on the px/2+1 half-grid columns; the inverse one keeps only the rows
// the merge reads, and the inverse row transforms keep only columns < nx.
// Every transform's input is written in its plan's digit-reversed order:
// pack and mergeRows scatter within a row, splitRows and the spectrum
// product pick the half-grid row.
//
//pdn:hot
func (op *ToeplitzOp) convolve(dst, x, spec []float64) {
	p, g, z := op.plan, op.grid, op.row
	at := p.col.at
	for r := 0; r < op.ny; r += 2 {
		op.pack(z, x, r)
		p.row.transform(z, op.px, &p.row.fwd)
		p.splitRows(p.line(g, int(at[r])), p.line(g, int(at[r+1])), z)
	}
	for r := op.rows; r < op.py; r++ {
		clear(p.line(g, int(at[r])))
	}
	p.col.columns(g, p.hw, p.hw, op.py, &p.col.fwd)
	for r := 0; r < op.py; r++ {
		multiplyRow(p.line(op.prod, int(at[r])), p.line(g, r), spec[r*p.hw:(r+1)*p.hw])
	}
	p.col.columns(op.prod, p.hw, p.hw, op.rows, &p.col.inv)
	for r := 0; r < op.ny; r += 2 {
		p.mergeRows(z, p.line(op.prod, r), p.line(op.prod, r+1), p.row.at)
		p.row.transform(z, op.nx, &p.row.inv)
		op.unpack(dst, z, r)
	}
}

// multiplyRow sets dst = src ⊙ s for one half-grid row and its real
// spectrum.
func multiplyRow(dst, src []complex128, s []float64) {
	src, s = src[:len(dst)], s[:len(dst)]
	for i, v := range src {
		dst[i] = complex(real(v)*s[i], imag(v)*s[i])
	}
}

// pack loads grid rows r and r+1 of x into z as one complex row (row r in
// the real parts, row r+1 in the imaginary parts; +0 where no unknown sits
// and past column nx), column c at the row plan's digit-reversed position.
//
//pdn:hot
func (op *ToeplitzOp) pack(z []complex128, x []float64, r int) {
	nx, at := op.nx, op.plan.row.at[:op.nx]
	clear(z)
	for c, s := range op.slot[r*nx : (r+1)*nx] {
		if s != 0 {
			z[at[c]] = complex(x[s-1], 0)
		}
	}
	if r+1 < op.ny {
		for c, s := range op.slot[(r+1)*nx : (r+2)*nx] {
			if s != 0 {
				k := at[c]
				z[k] = complex(real(z[k]), x[s-1])
			}
		}
	}
}

// unpack stores the real parts of z's first nx entries into the unknowns
// of grid row r, and the imaginary parts into those of row r+1.
//
//pdn:hot
func (op *ToeplitzOp) unpack(dst []float64, z []complex128, r int) {
	nx := op.nx
	for c, s := range op.slot[r*nx : (r+1)*nx] {
		if s != 0 {
			dst[s-1] = real(z[c])
		}
	}
	if r+1 < op.ny {
		for c, s := range op.slot[(r+1)*nx : (r+2)*nx] {
			if s != 0 {
				dst[s-1] = imag(z[c])
			}
		}
	}
}
