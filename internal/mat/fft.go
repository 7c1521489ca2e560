// Iterative radix-2 complex FFT used by the block-Toeplitz fast matvec
// (toeplitz.go). The transform is preplanned: twiddle factors and the
// bit-reversal permutation are computed once per size, so the hot transform
// itself performs no allocation, no trigonometry, and no data-dependent
// branching — for a fixed size the sequence of floating-point operations is
// identical on every call, which makes the Toeplitz matvec bitwise
// deterministic (the serial≡parallel and resume contracts both lean on
// this).
//
// The Toeplitz applies transform real data, so the 2-D transform is a
// real-data one (fftPlan2D). Two real grid rows travel as one complex row:
// row r in the real parts, row r+1 in the imaginary parts. One complex row
// transform and a split by Hermitian symmetry (splitRows) give both rows'
// half spectra, columns 0..w/2; the column pass then runs on those w/2+1
// half-grid columns only, and mergeRows rebuilds a packed pair's full row
// spectrum for one inverse complex row transform. On a 35×35 grid padded
// to 128×128 an apply takes 166 length-128 transforms (18 row pairs each
// way, 65 columns each way) where the complex 2-D FFT took 326.
//
// The 2-D transform does only the work its caller reads, and every entry it
// computes goes through the same floating-point operations, in the same
// order, as in the plain real-data algorithm: every row pair packed, split
// and merged, with a full strided 1-D FFT per row and per half-grid column
// (the reference kept in toeplitz_test.go, which the results must equal):
//
//   - Only the row pairs holding input rows (r < ny) are row transformed;
//     the other half-grid rows are set to +0. A butterfly on +0 inputs
//     writes +0 back (w·0 is ±0, and +0 ± ±0 is +0), and so does the split,
//     so a skipped pair holds exactly what its transform would have left.
//   - The inverse column pass and the inverse row transforms compute only
//     the low half of their last stage when the high half is unread: the
//     merge reads half-grid rows < ny rounded up to even, and the gather
//     reads columns < nx (both at most half the padded size for the
//     circulant embedding); no low output reads a high one. Only the row
//     pairs holding output rows are merged and inverse transformed.
//   - The column pass is row-blocked. Each butterfly acts on contiguous row
//     segments, and the bit-reversal swaps whole row segments. Per entry
//     this is the strided column transform, but memory is walked in order.
//   - Stages run in pairs where they can (h and 2h over a block of 4h), so
//     an entry is loaded and stored once per two stages; the per-entry
//     sequence of operations is that of the two stages run in turn.
//   - The first two stages, whose twiddles are all 1 but one, skip the
//     multiplies by 1. Such a twiddle is exactly 1 with a zero imaginary
//     part, so w·x equals x except possibly in the sign of a zero component;
//     a signed zero cannot change a nonzero sum, so every output is == to
//     the multiplied form.
//
// Against the full complex 2-D transform the real-data results differ at
// roundoff (a few ulps of the largest output), and they are just as
// deterministic.
//
// Only power-of-two sizes are supported; the circulant embedding in
// toeplitz.go always pads to a power of two, so no general-size (Bluestein)
// fallback is needed.
package mat

import "math"

// fftPlan holds the precomputed tables for a radix-2 complex FFT of one
// fixed power-of-two size.
type fftPlan struct {
	n   int          // transform size, power of two
	rev []int32      // bit-reversal permutation
	tw  []complex128 // forward twiddles, grouped by stage (n-1 entries)
	itw []complex128 // inverse twiddles (conjugates, same layout)
}

// newFFTPlan builds the tables for size n (must be a power of two ≥ 1).
func newFFTPlan(n int) *fftPlan {
	if n <= 0 || n&(n-1) != 0 {
		panic("mat: FFT size must be a power of two")
	}
	p := &fftPlan{n: n}
	p.rev = make([]int32, n)
	logn := 0
	for 1<<logn < n {
		logn++
	}
	for i := 0; i < n; i++ {
		r := 0
		for b := 0; b < logn; b++ {
			r = r<<1 | (i>>b)&1
		}
		p.rev[i] = int32(r)
	}
	// Twiddles stage by stage: stage with half-size h uses h roots
	// exp(-2πi·j/(2h)), j = 0..h-1, laid out contiguously.
	p.tw = make([]complex128, 0, n)
	p.itw = make([]complex128, 0, n)
	for h := 1; h < n; h <<= 1 {
		for j := 0; j < h; j++ {
			ang := -math.Pi * float64(j) / float64(h)
			w := complex(math.Cos(ang), math.Sin(ang))
			p.tw = append(p.tw, w)
			p.itw = append(p.itw, complex(real(w), -imag(w)))
		}
	}
	return p
}

// transform runs the in-place decimation-in-time FFT over the contiguous
// x[0:n] with the given twiddle table (tw for forward, itw for inverse).
// Only outputs x[0:keep] are needed: when keep ≤ n/2 the last stage computes
// just those. The caller scales an inverse transform by 1/n itself — the
// Toeplitz matvec folds that factor into its spectrum so the hot path never
// needs a separate normalisation pass.
//
// Stages run two at a time (stages h and 2h over blocks of 4h); the last
// stage always runs on its own so that it can be pruned. Stage h's twiddles
// start at tw[h-1].
//
//pdn:hot
func (p *fftPlan) transform(x []complex128, keep int, tw []complex128) {
	n := p.n
	x = x[:n]
	for i, r := range p.rev {
		if j := int(r); i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	h := 1
	if n >= 8 {
		// Stages 1 and 2 inline: a call per block of four would cost more
		// than the block's butterflies, whose twiddles are 1, 1, 1 and tw[2]
		// (the multiplies by 1 are skipped).
		w := tw[2]
		for s := 0; s < n; s += 4 {
			q := x[s : s+4]
			a0, a1 := q[0]+q[1], q[0]-q[1]
			a2, a3 := q[2]+q[3], q[2]-q[3]
			t := w * a3
			q[0], q[2], q[1], q[3] = a0+a2, a0-a2, a1+t, a1-t
		}
		h = 4
	}
	for ; 4*h < n; h <<= 2 {
		wa, wb, wc := tw[h-1:2*h-1], tw[2*h-1:3*h-1], tw[3*h-1:4*h-1]
		for s := 0; s < n; s += 4 * h {
			twoStages(x[s:s+h], x[s+h:s+2*h], x[s+2*h:s+3*h], x[s+3*h:s+4*h], wa, wb, wc)
		}
	}
	for ; h < n; h <<= 1 {
		w := tw[h-1 : 2*h-1]
		if 2*h == n && keep <= h {
			lo, hi := x[:keep], x[h:h+keep]
			w = w[:len(lo)]
			for j := range lo {
				lo[j] += w[j] * hi[j]
			}
			return
		}
		for s := 0; s < n; s += 2 * h {
			lo, hi := x[s:s+h], x[s+h:s+2*h]
			hi, w := hi[:len(lo)], w[:len(lo)]
			for j := range lo {
				t := w[j] * hi[j]
				hi[j] = lo[j] - t
				lo[j] += t
			}
		}
	}
}

// twoStages applies stages h and 2h to one block of 4h entries, given as
// its quarters x0..x3 (each h long): stage h pairs x0/x1 and x2/x3 with
// twiddles wa, stage 2h pairs x0/x2 with wb and x1/x3 with wc. Per entry
// these are the operations of the two stages run one after the other.
func twoStages(x0, x1, x2, x3, wa, wb, wc []complex128) {
	x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
	wa, wb, wc = wa[:len(x0)], wb[:len(x0)], wc[:len(x0)]
	for j := range x0 {
		a0, a1, a2, a3 := x0[j], x1[j], x2[j], x3[j]
		t := wa[j] * a1
		a0, a1 = a0+t, a0-t
		t = wa[j] * a3
		a2, a3 = a2+t, a2-t
		t = wb[j] * a2
		x0[j], x2[j] = a0+t, a0-t
		t = wc[j] * a3
		x1[j], x3[j] = a1+t, a1-t
	}
}

// columns runs the same transform down the first cols columns of a grid of
// n rows with row stride stride, keeping output rows [0, keep). It is
// row-blocked: each butterfly combines contiguous row segments, so the
// pass streams through memory instead of striding by a row per access.
//
//pdn:hot
func (p *fftPlan) columns(data []complex128, stride, cols, keep int, tw []complex128) {
	n := p.n
	row := func(r int) []complex128 { return data[r*stride : r*stride+cols] }
	for i, r := range p.rev {
		if j := int(r); i < j {
			swapRows(row(i), row(j))
		}
	}
	h := 1
	if n >= 8 {
		for s := 0; s < n; s += 4 {
			twoStageRows1(row(s), row(s+1), row(s+2), row(s+3), tw[2])
		}
		h = 4
	}
	for ; 4*h < n; h <<= 2 {
		for s := 0; s < n; s += 4 * h {
			for j := 0; j < h; j++ {
				r := s + j
				twoStageRows(row(r), row(r+h), row(r+2*h), row(r+3*h), tw[h-1+j], tw[2*h-1+j], tw[3*h-1+j])
			}
		}
	}
	for ; h < n; h <<= 1 {
		if 2*h == n && keep <= h {
			for j := 0; j < keep; j++ {
				accumulate(row(j), row(j+h), tw[h-1+j])
			}
			return
		}
		for s := 0; s < n; s += 2 * h {
			for j := 0; j < h; j++ {
				butterfly(row(s+j), row(s+j+h), tw[h-1+j])
			}
		}
	}
}

// The row-segment kernels of the column pass apply one butterfly, or two
// stages' worth, with the same twiddles to every column of the segments.
// accumulate is the low half of a butterfly only; twoStageRows1 is
// twoStageRows for the first two stages, whose twiddles are 1, 1 and wc.
// They are small leaf functions so that the loop state stays in registers.

func swapRows(a, b []complex128) {
	b = b[:len(a)]
	for c := range a {
		a[c], b[c] = b[c], a[c]
	}
}

func butterfly(lo, hi []complex128, w complex128) {
	hi = hi[:len(lo)]
	for c := range lo {
		t := w * hi[c]
		hi[c] = lo[c] - t
		lo[c] += t
	}
}

func accumulate(lo, hi []complex128, w complex128) {
	hi = hi[:len(lo)]
	for c := range lo {
		lo[c] += w * hi[c]
	}
}

func twoStageRows(x0, x1, x2, x3 []complex128, wa, wb, wc complex128) {
	x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
	for c := range x0 {
		a0, a1, a2, a3 := x0[c], x1[c], x2[c], x3[c]
		t := wa * a1
		a0, a1 = a0+t, a0-t
		t = wa * a3
		a2, a3 = a2+t, a2-t
		t = wb * a2
		x0[c], x2[c] = a0+t, a0-t
		t = wc * a3
		x1[c], x3[c] = a1+t, a1-t
	}
}

func twoStageRows1(x0, x1, x2, x3 []complex128, wc complex128) {
	x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
	for c := range x0 {
		a0, a1, a2, a3 := x0[c], x1[c], x2[c], x3[c]
		a0, a1 = a0+a1, a0-a1
		a2, a3 = a2+a3, a2-a3
		t := wc * a3
		x0[c], x2[c] = a0+a2, a0-a2
		x1[c], x3[c] = a1+t, a1-t
	}
}

// fftPlan2D is the real-data 2-D FFT over an h×w row-major grid of reals
// (both dimensions powers of two). The spectrum of real data is Hermitian,
// so the plan keeps only its half grid: h rows of hw = w/2+1 complex
// entries, columns 0..w/2 of the full 2-D spectrum. Two real rows share
// one complex row transform (row r in the real parts, row r+1 in the
// imaginary parts); splitRows and mergeRows convert between such a packed
// row pair and two half-grid rows, and the column pass runs on the hw
// half-grid columns only.
type fftPlan2D struct {
	w, h, hw int
	row, col *fftPlan     // 1-D plans along a row (size w) and down a column (size h)
	zero     []complex128 // hw zeros: the partner of the unpaired row when h is 1
}

func newFFTPlan2D(w, h int) *fftPlan2D {
	p := &fftPlan2D{w: w, h: h, hw: w/2 + 1, row: newFFTPlan(w)}
	if h == w {
		p.col = p.row
	} else {
		p.col = newFFTPlan(h)
	}
	p.zero = make([]complex128, p.hw)
	return p
}

// splitRows takes z, the length-w FFT of a packed row pair (grid row r in
// the real parts, row r+1 in the imaginary parts), and writes twice the
// half spectrum of each row into half-grid rows r and r+1 — the caller
// folds the factor 2 into its pointwise spectrum. With Z the packed
// transform and m = (w−k) mod w, row r's spectrum is (Z[k] + conj(Z[m]))/2
// and row r+1's is (Z[k] − conj(Z[m]))/(2i). Row r+1 is written only if
// the grid has it.
//
//pdn:hot
func (p *fftPlan2D) splitRows(g, z []complex128, r int) {
	hw, mask := p.hw, p.w-1
	a := g[r*hw : (r+1)*hw]
	for k := range a {
		zk, zm := z[k], z[(p.w-k)&mask]
		a[k] = complex(real(zk)+real(zm), imag(zk)-imag(zm))
	}
	if r+1 >= p.h {
		return
	}
	b := g[(r+1)*hw : (r+2)*hw]
	for k := range b {
		zk, zm := z[k], z[(p.w-k)&mask]
		b[k] = complex(imag(zk)+imag(zm), real(zm)-real(zk))
	}
}

// mergeRows is the inverse of splitRows: from half-grid rows r and r+1 (a
// and b, the half spectra of two real rows) it builds the full length-w
// spectrum of the packed pair, a + i·b on columns ≤ w/2 and conj(a) +
// i·conj(b) on their mirrors. Columns 0 and w/2 are their own mirrors and
// hold real spectra; their imaginary parts are roundoff, and only the real
// parts are kept. When the grid has no row r+1 (h = 1), b is zero.
//
//pdn:hot
func (p *fftPlan2D) mergeRows(z, g []complex128, r int) {
	w, hw := p.w, p.hw
	a, b := g[r*hw:(r+1)*hw], p.zero
	if r+1 < p.h {
		b = g[(r+1)*hw : (r+2)*hw]
	}
	b = b[:len(a)]
	z[0] = complex(real(a[0]), real(b[0]))
	for k := 1; k < w/2; k++ {
		ak, bk := a[k], b[k]
		z[k] = complex(real(ak)-imag(bk), imag(ak)+real(bk))
		z[w-k] = complex(real(ak)+imag(bk), real(bk)-imag(ak))
	}
	if w > 1 {
		z[w/2] = complex(real(a[w/2]), real(b[w/2]))
	}
}

// nextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
