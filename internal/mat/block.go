package mat

// This file holds the cache-blocked compute kernels behind the package's
// dense operations (Mul, MulVec, LU/CLU trailing updates, the Cholesky
// rank-k update) and their parallel dispatch. Three contracts:
//
//   - Blocking: matrix-matrix work is tiled so the streamed operand panel
//     stays in cache (gemmKBlock rows of B per pass, gemmRowTile output rows
//     sharing each B load), turning the memory-bound naive triple loop into
//     a compute-bound one.
//   - Allocation-free inner loops: the serial kernels carry the //pdn:hot
//     annotation, and pdnlint's hotalloc analyzer rejects any allocation,
//     interface boxing, defer, or map traffic inside their loops.
//   - Accumulation order: every kernel applies contributions to each output
//     element one term at a time in ascending-k order — exactly the per-
//     element operation sequence of the historical unblocked loops — so
//     blocked and unblocked factorisations/products are bitwise identical
//     on identical inputs. The dot kernel is the one exception: it carries
//     eight independent accumulators combined pairwise in a fixed order,
//     which reorders sums relative to a sequential loop and shifts results
//     by ulps (see luEquivRelTol and DESIGN.md §5g for the documented
//     equivalence tolerances).
//   - Determinism: parallel dispatch partitions output rows (or columns)
//     without sharing accumulators, so results are bitwise identical
//     regardless of GOMAXPROCS, worker budget, or scheduling. Serial and
//     parallel paths run the same code.
//
// The kernels deliberately use separate multiply and add rather than
// math.FMA: on the targets this package meets, the FMA intrinsic's per-call
// dispatch costs more than the fused rounding saves, and plain mul+add keeps
// results reproducible against the historical kernels.

const (
	// gemmKBlock is the number of B rows streamed per blocked matrix-matrix
	// pass: a panel of gemmKBlock×n float64 is reused across every output
	// row tile before the next panel is touched, keeping it cache-resident
	// for the sizes this package meets (plane meshes up to a few thousand
	// unknowns).
	gemmKBlock = 256

	// gemmRowTile is the register tile height: gemmRowTile output rows share
	// every B-panel load, cutting B traffic by the same factor.
	gemmRowTile = 4

	// gemmRowBlock is the number of output rows per parallel work item. A
	// row block of a few dozen rows amortises the ParallelFor dispatch to
	// noise while leaving enough items to balance uneven workers.
	gemmRowBlock = 32

	// parallelMinFlops is the approximate flop count below which parallel
	// dispatch is not attempted: goroutine fan-out costs on the order of
	// microseconds, so work under ~1 Mflop runs faster on the calling
	// goroutine.
	parallelMinFlops = 1 << 20
)

// gemmBlocks returns the number of gemmRowBlock-sized row groups covering
// rows, or 1 when the work is too small to parallelise.
func gemmBlocks(rows, cols, kk int) int {
	if rows*cols*kk < parallelMinFlops {
		return 1
	}
	return (rows + gemmRowBlock - 1) / gemmRowBlock
}

// gemmAcc computes C[0:rows, 0:cols] ?= A[0:rows, 0:kk]·B[0:kk, 0:cols]
// (+= when neg is false, -= when neg is true) on row-major slices with the
// given leading dimensions, parallelised over output row groups. Each output
// element accumulates its kk terms one at a time in ascending-k order.
func gemmAcc(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, rows, cols, kk int, neg bool) {
	if rows <= 0 || cols <= 0 || kk <= 0 {
		return
	}
	nblk := gemmBlocks(rows, cols, kk)
	if nblk == 1 {
		gemmRows(c, ldc, a, lda, 1, b, ldb, rows, cols, kk, neg)
		return
	}
	ParallelFor(nblk, func(bi int) {
		r0 := bi * gemmRowBlock
		r1 := minInt(r0+gemmRowBlock, rows)
		gemmRows(c[r0*ldc:], ldc, a[r0*lda:], lda, 1, b, ldb, r1-r0, cols, kk, neg)
	})
}

// gemmRows is the serial blocked kernel behind gemmAcc, the blocked
// triangular solves and the Gram product: k-panels of B are streamed once
// per gemmRowTile output rows, which share each B load. A is read through
// strides, A(i,k) = a[i*lda + k*csa]: csa = 1 is a row-major A, lda = 1
// with csa = its row length reads a row-major matrix as its transpose
// (four adjacent entries of one row feed a row tile) without copying it.
//
//pdn:hot
func gemmRows(c []float64, ldc int, a []float64, lda, csa int, b []float64, ldb int, rows, cols, kk int, neg bool) {
	for k0 := 0; k0 < kk; k0 += gemmKBlock {
		k1 := minInt(k0+gemmKBlock, kk)
		i := 0
		for ; i+gemmRowTile <= rows; i += gemmRowTile {
			c0 := c[i*ldc:][:cols]
			c1 := c[(i+1)*ldc:][:cols]
			c2 := c[(i+2)*ldc:][:cols]
			c3 := c[(i+3)*ldc:][:cols]
			a0, a1, a2, a3 := a[i*lda:], a[(i+1)*lda:], a[(i+2)*lda:], a[(i+3)*lda:]
			for k := k0; k < k1; k++ {
				ka := k * csa
				v0, v1, v2, v3 := a0[ka], a1[ka], a2[ka], a3[ka]
				if neg {
					v0, v1, v2, v3 = -v0, -v1, -v2, -v3
				}
				axpy4(c0, c1, c2, c3, b[k*ldb:][:cols], v0, v1, v2, v3)
			}
		}
		for ; i < rows; i++ {
			c0 := c[i*ldc:][:cols]
			a0 := a[i*lda:]
			for k := k0; k < k1; k++ {
				v0 := a0[k*csa]
				if neg {
					v0 = -v0
				}
				axpy1(c0, b[k*ldb:][:cols], v0)
			}
		}
	}
}

// axpy4 computes cr[j] += vr·b[j] for four output rows sharing one load of b.
// It is kept out of line deliberately: inlined into the caller, the five base
// pointers plus the caller's slice headers exceed the register file and the
// compiler spills a loop-carried pointer into the inner loop (measured ~30%
// slower). The reslice to len(b) hoists the bounds checks out of the loop.
// All four rows must be at least len(b) long.
//
//pdn:hot
//go:noinline
func axpy4(c0, c1, c2, c3, b []float64, v0, v1, v2, v3 float64) {
	n := len(b)
	c0, c1, c2, c3 = c0[:n], c1[:n], c2[:n], c3[:n]
	for j, bv := range b {
		c0[j] += v0 * bv
		c1[j] += v1 * bv
		c2[j] += v2 * bv
		c3[j] += v3 * bv
	}
}

// axpy1 is the single-row remainder kernel: c[j] += v·b[j].
//
//pdn:hot
//go:noinline
func axpy1(c, b []float64, v float64) {
	c = c[:len(b)]
	for j, bv := range b {
		c[j] += v * bv
	}
}

// Dot returns Σ a[j]·b[j] over the shorter length — the multi-accumulator
// kernel shared with the dense solvers, exported for the operator-path
// iterations in internal/extract.
func Dot(a, b []float64) float64 { return dot(a, b) }

// dot returns Σ row[j]·x[j] accumulated over eight independent chains, which
// hides the add latency that serialises a single-accumulator dot product.
// The partial sums combine pairwise in a fixed order, so the result is
// deterministic (but differs from a plain left-to-right sum by ulps).
//
//pdn:hot
func dot(row, x []float64) float64 {
	n := len(row)
	if len(x) < n {
		n = len(x)
	}
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	i := 0
	for ; i+8 <= n; i += 8 {
		s0 += row[i] * x[i]
		s1 += row[i+1] * x[i+1]
		s2 += row[i+2] * x[i+2]
		s3 += row[i+3] * x[i+3]
		s4 += row[i+4] * x[i+4]
		s5 += row[i+5] * x[i+5]
		s6 += row[i+6] * x[i+6]
		s7 += row[i+7] * x[i+7]
	}
	for ; i < n; i++ {
		s0 += row[i] * x[i]
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}

// cdot returns Σ row[j]·x[j] for complex slices with a 2-way unroll (complex
// multiplies carry enough scalar work to fill the pipeline at two chains).
//
//pdn:hot
func cdot(row, x []complex128) complex128 {
	n := len(row)
	if len(x) < n {
		n = len(x)
	}
	var s0, s1 complex128
	i := 0
	for ; i+2 <= n; i += 2 {
		s0 += row[i] * x[i]
		s1 += row[i+1] * x[i+1]
	}
	if i < n {
		s0 += row[i] * x[i]
	}
	return s0 + s1
}

// cgemmAcc is the complex analogue of gemmAcc: C ?= A·B on row-major
// complex128 slices, parallelised over output row groups, ascending-k
// accumulation per element.
func cgemmAcc(c []complex128, ldc int, a []complex128, lda int, b []complex128, ldb int, rows, cols, kk int, neg bool) {
	if rows <= 0 || cols <= 0 || kk <= 0 {
		return
	}
	// A complex multiply-add is ~4× the flops of a real one.
	nblk := gemmBlocks(rows, cols, 4*kk)
	if nblk == 1 {
		cgemmRows(c, ldc, a, lda, b, ldb, rows, cols, kk, neg)
		return
	}
	ParallelFor(nblk, func(bi int) {
		r0 := bi * gemmRowBlock
		r1 := minInt(r0+gemmRowBlock, rows)
		cgemmRows(c[r0*ldc:], ldc, a[r0*lda:], lda, b, ldb, r1-r0, cols, kk, neg)
	})
}

//pdn:hot
func cgemmRows(c []complex128, ldc int, a []complex128, lda int, b []complex128, ldb int, rows, cols, kk int, neg bool) {
	for k0 := 0; k0 < kk; k0 += gemmKBlock {
		k1 := minInt(k0+gemmKBlock, kk)
		i := 0
		for ; i+1 < rows; i += 2 {
			c0 := c[i*ldc:][:cols]
			c1 := c[(i+1)*ldc:][:cols]
			a0, a1 := a[i*lda:], a[(i+1)*lda:]
			for k := k0; k < k1; k++ {
				v0, v1 := a0[k], a1[k]
				if neg {
					v0, v1 = -v0, -v1
				}
				caxpy2(c0, c1, b[k*ldb:][:cols], v0, v1)
			}
		}
		if i < rows {
			c0 := c[i*ldc:][:cols]
			a0 := a[i*lda:]
			for k := k0; k < k1; k++ {
				v := a0[k]
				if neg {
					v = -v
				}
				caxpy1(c0, b[k*ldb:][:cols], v)
			}
		}
	}
}

// caxpy2/caxpy1 are the complex axpy kernels; out of line for the same
// register-pressure reason as axpy4. No zero-skip: a 0·Inf / 0·NaN term must
// poison the result (the historical skip masked NaN propagation; see Mul).
//
//pdn:hot
//go:noinline
func caxpy2(c0, c1, b []complex128, v0, v1 complex128) {
	n := len(b)
	c0, c1 = c0[:n], c1[:n]
	for j, bv := range b {
		c0[j] += v0 * bv
		c1[j] += v1 * bv
	}
}

//pdn:hot
//go:noinline
func caxpy1(c, b []complex128, v complex128) {
	c = c[:len(b)]
	for j, bv := range b {
		c[j] += v * bv
	}
}

// syrkSubLower computes C[i][j] -= Σ_k A[i,k]·A[j,k] for the lower triangle
// (j ≤ i) of C[0:rows, 0:rows], with A of width kk — the symmetric rank-k
// trailing update of the blocked Cholesky — parallelised over row groups.
// The panel is transposed once into at (kk×rows, caller-owned scratch of at
// least kk·rows) so that each row group's rectangle left of its diagonal
// block is one gemmRows update; the diagonal block's lower triangle follows
// one axpy per row and k. Every entry subtracts its kk terms one at a time
// in ascending-k order.
//
//pdn:hot
func syrkSubLower(c []float64, ldc int, a []float64, lda int, rows, kk int, at []float64) {
	if rows <= 0 || kk <= 0 {
		return
	}
	at = at[:kk*rows]
	for i := 0; i < rows; i++ {
		for k, v := range a[i*lda : i*lda+kk] {
			at[k*rows+i] = v
		}
	}
	update := func(r0, r1 int) {
		gemmRows(c[r0*ldc:], ldc, a[r0*lda:], lda, 1, at, rows, r1-r0, r0, kk, true)
		syrkDiagBlock(c, ldc, a, lda, at, rows, r0, r1, kk)
	}
	nblk := gemmBlocks(rows, rows/2+1, kk)
	if nblk == 1 {
		update(0, rows)
		return
	}
	ParallelFor(nblk, func(bi int) {
		r0 := bi * gemmRowBlock
		update(r0, minInt(r0+gemmRowBlock, rows))
	})
}

// syrkDiagBlock is the diagonal-block part of syrkSubLower: rows [r0, r1),
// columns r0..i of each row i, from the transposed panel at (ldt = rows).
//
//pdn:hot
func syrkDiagBlock(c []float64, ldc int, a []float64, lda int, at []float64, ldt, r0, r1, kk int) {
	for i := r0; i < r1; i++ {
		ci := c[i*ldc+r0 : i*ldc+i+1]
		ai := a[i*lda : i*lda+kk]
		for k, v := range ai {
			axpy1(ci, at[k*ldt+r0:k*ldt+i+1], -v)
		}
	}
}

const (
	// triBlock is the diagonal-block height of the blocked triangular
	// solves: the unknowns outside a block reach it as one gemmRows update,
	// those inside it one axpy at a time. Sized like luPanel.
	triBlock = 48

	// triChunk is the right-hand-side column width of one work item of the
	// blocked triangular solves: wide enough to amortise each axpy4 call,
	// narrow enough that a gemmKBlock-row panel of the chunk stays in cache
	// and a few hundred columns still split across workers.
	triChunk = 64
)

// triSolve solves T·X = B in place on the row-major n×cols block x (leading
// dimension ldx, B on entry, X on return) for a triangular T read through
// strides, T(i,j) = t[i*lda + j*csa]: csa = 1 reads a row-major factor,
// lda = 1 with csa = n reads it as its transpose without copying it. upper
// selects back substitution; unit takes the diagonal as implicit ones.
//
// Each block of triBlock unknowns first takes the already-solved ones
// outside it as one gemmRows update, then resolves its own rows one axpy
// at a time. Per element, forward substitution subtracts its terms in
// ascending column order, exactly the sequence of a column-at-a-time loop;
// back substitution subtracts the terms beyond the block first (ascending)
// and the in-block ones after them (ascending), which differs from that
// loop by ulps (luEquivRelTol). Columns never interact, so a column's
// result does not depend on the width of the block it is solved in.
//
//pdn:hot
func triSolve(t []float64, lda, csa int, x []float64, ldx, n, cols int, upper, unit bool) {
	if !upper {
		// Leading all-zero rows of B solve to zero and contribute only
		// zero terms, which leave every later sum bitwise unchanged: start
		// at the first nonzero row (a sparse B such as the incidence
		// matrix or the identity skips most of the work).
		s := 0
		for s < n && zeroRow(x[s*ldx:][:cols]) {
			s++
		}
		for i0 := s; i0 < n; i0 += triBlock {
			i1 := minInt(i0+triBlock, n)
			gemmRows(x[i0*ldx:], ldx, t[i0*lda+s*csa:], lda, csa, x[s*ldx:], ldx, i1-i0, cols, i0-s, true)
			for i := i0; i < i1; i++ {
				xi := x[i*ldx:][:cols]
				for j := i0; j < i; j++ {
					axpy1(xi, x[j*ldx:][:cols], -t[i*lda+j*csa])
				}
				if !unit {
					divRow(xi, t[i*lda+i*csa])
				}
			}
		}
		return
	}
	for i1 := n; i1 > 0; i1 -= triBlock {
		i0 := maxInt(i1-triBlock, 0)
		if i1 < n {
			gemmRows(x[i0*ldx:], ldx, t[i0*lda+i1*csa:], lda, csa, x[i1*ldx:], ldx, i1-i0, cols, n-i1, true)
		}
		for i := i1 - 1; i >= i0; i-- {
			xi := x[i*ldx:][:cols]
			for j := i + 1; j < i1; j++ {
				axpy1(xi, x[j*ldx:][:cols], -t[i*lda+j*csa])
			}
			if !unit {
				divRow(xi, t[i*lda+i*csa])
			}
		}
	}
}

// zeroRow reports whether every entry of x is zero.
//
//pdn:hot
func zeroRow(x []float64) bool {
	for _, v := range x {
		if v != 0 {
			return false
		}
	}
	return true
}

// divRow divides every entry of x by d (a division, not a reciprocal
// multiply, so the result matches a scalar substitution loop bit for bit).
//
//pdn:hot
func divRow(x []float64, d float64) {
	for j := range x {
		x[j] /= d
	}
}

// forColumnChunks calls fn on disjoint triChunk-wide column ranges [c0, c1)
// of an n-row, m-column right-hand side, in parallel when an n×n triangular
// solve over all m columns is large enough to pay for the fan-out. Work
// items share no output, so results are bitwise identical at any
// GOMAXPROCS.
func forColumnChunks(n, m int, fn func(c0, c1 int)) {
	nchunk := (m + triChunk - 1) / triChunk
	if n*n*m < parallelMinFlops {
		for c0 := 0; c0 < m; c0 += triChunk {
			fn(c0, minInt(c0+triChunk, m))
		}
		return
	}
	ParallelFor(nchunk, func(ci int) {
		c0 := ci * triChunk
		fn(c0, minInt(c0+triChunk, m))
	})
}

// Gram returns the symmetric product YᵀY. The lower triangle is computed
// by gemmRows reading Y as its own transpose (no copy of Y), parallel over
// gemmRowBlock-row groups, each entry accumulating its terms in ascending
// row order of Y; the upper triangle is mirrored from it. A row group's sum
// starts at the first row of Y holding a nonzero in any of its columns: the
// terms above it are exact zeros, so skipping them changes no bit (the
// forward solve of a sparse right-hand side leaves exactly such a leading
// zero profile). The result is exactly symmetric and bitwise identical at
// any GOMAXPROCS.
func Gram(y *Matrix) *Matrix {
	n, m := y.Rows, y.Cols
	g := New(m, m)
	if n == 0 || m == 0 {
		return g
	}
	first := make([]int, m)
	for c := range first {
		first[c] = n
	}
	for k, left := 0, m; k < n && left > 0; k++ {
		for c, v := range y.Data[k*m : (k+1)*m] {
			if v != 0 && first[c] == n {
				first[c] = k
				left--
			}
		}
	}
	rowsOf := func(r0, r1 int) {
		ks := n
		for _, f := range first[r0:r1] {
			ks = minInt(ks, f)
		}
		if ks < n {
			gemmRows(g.Data[r0*m:], m, y.Data[ks*m+r0:], 1, m, y.Data[ks*m:], m, r1-r0, r1, n-ks, false)
		}
	}
	if nblk := gemmBlocks(m, m/2+1, n); nblk == 1 {
		rowsOf(0, m)
	} else {
		ParallelFor(nblk, func(bi int) {
			r0 := bi * gemmRowBlock
			rowsOf(r0, minInt(r0+gemmRowBlock, m))
		})
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			g.Data[i*m+j] = g.Data[j*m+i]
		}
	}
	return g
}
