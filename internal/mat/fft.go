// Iterative mixed-radix complex FFT used by the block-Toeplitz fast matvec
// (toeplitz.go), for any size 2ᵃ·3ᵇ with a ≥ 1. The transform is
// preplanned: twiddle factors and the digit-reversal order are computed
// once per size, so the hot transform itself performs no allocation, no
// trigonometry, and no data-dependent branching — for a fixed size the
// sequence of floating-point operations is identical on every call, which
// makes the Toeplitz matvec bitwise deterministic (the serial≡parallel and
// resume contracts both lean on this). At a power-of-two size the stages
// are exactly the radix-2 ones this transform had when it supported only
// those sizes, so such a transform performs the same operations as before.
//
// The Toeplitz applies transform real data, so the 2-D transform is a
// real-data one (fftPlan2D). Two real grid rows travel as one complex row:
// row r in the real parts, row r+1 in the imaginary parts. One complex row
// transform and a split by Hermitian symmetry (splitRows) give both rows'
// half spectra, columns 0..w/2; the column pass then runs on those w/2+1
// half-grid columns only, and mergeRows rebuilds a packed pair's full row
// spectrum for one inverse complex row transform. On a 35×35 grid padded
// to 72×72 an apply takes 110 length-72 transforms (18 row pairs each way,
// 37 columns each way); padded to 128×128, as a power-of-two plan had to,
// it took 166 length-128 transforms.
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
//     the low half of their last stage, which is always radix-2, when the
//     high half is unread: the merge reads half-grid rows < ny rounded up to
//     even, and the gather reads columns < nx (both at most half the padded
//     size for the circulant embedding); no low output reads a high one.
//     Only the row pairs holding output rows are merged and inverse
//     transformed.
//   - No pass is a permutation. Each transform's input is written straight
//     to its digit-reversed position by the step that produces it: pack and
//     mergeRows within a row, splitRows and the spectrum product by picking
//     the half-grid row.
//   - The column pass is row-blocked. Each butterfly acts on contiguous row
//     segments: per entry this is the strided column transform, but memory
//     is walked in order.
//   - Radix-2 stages run in pairs where they can (h and 2h over a block of
//     4h), so an entry is loaded and stored once per two stages; the
//     per-entry sequence of operations is that of the two stages run in
//     turn.
//   - The first stage, radix-3 or (at a power-of-two size of 8 or more) the
//     first two radix-2 stages, skips its multiplies by 1. Such a twiddle is
//     exactly 1 with a zero imaginary part, so w·x equals x except possibly
//     in the sign of a zero component; a signed zero cannot change a nonzero
//     sum, so every output is == to the multiplied form.
//
// Against the full complex 2-D transform the real-data results differ at
// roundoff (a few ulps of the largest output), and they are just as
// deterministic.
//
// The sizes are 2ᵃ·3ᵇ because the circulant embedding in toeplitz.go pads
// each axis to the smallest even such size ≥ 2n−1 (fftSize), which for
// n ≥ 2 stays within 4/3 of 2n−1 where a power of two could nearly double
// it; no general-size (Bluestein) fallback is needed. The size is even so
// that the last stage is radix-2 and rows pair up for the real-data split.
package mat

import "math"

// fftPlan holds the precomputed tables for a mixed-radix complex FFT of one
// fixed size n = 2ᵃ·3ᵇ, a ≥ 1. The transform is decimation in time: the
// input is put in digit-reversed order, then the radix-3 stages run (spans
// 1, 3, …, m/3 with m = 3ᵇ), then the radix-2 stages (spans m, 2m, …, n/2).
// The last stage is always radix-2, which is what lets it be pruned.
//
// The transforms take their input already digit-reversed: index i at
// position at[i]. Every caller scatters its input anyway (a packed row
// pair, a split row, a spectrum product), so it writes each entry straight
// to its permuted position and no pass of the transform is a permutation.
type fftPlan struct {
	n, m     int
	at       []int32 // digit-reversed position of each input index
	fwd, inv fftTwiddles
}

// fftTwiddles holds one direction's twiddles and radix-3 rotation.
type fftTwiddles struct {
	r2 []complex128 // radix-2 stage of span h: r2[h-m : 2h-m], roots exp(∓πi·j/h)
	r3 []complex128 // radix-3 stage of span h ≥ 3: r3[h-3 : 3h-3], pairs exp(∓2πi·j/3h), exp(∓2πi·2j/3h)
	c3 float64      // ±√3/2: the sine of the radix-3 rotation, + forward
}

// newFFTPlan builds the tables for size n, which must be 2ᵃ·3ᵇ with a ≥ 1.
func newFFTPlan(n int) *fftPlan {
	m, a := 1, n
	for a%3 == 0 {
		a /= 3
		m *= 3
	}
	if n < 2 || n%2 != 0 || a&(a-1) != 0 {
		panic("mat: FFT size must be 2^a·3^b with a ≥ 1")
	}
	p := &fftPlan{n: n, m: m}
	// Digit reversal: the stage radices, first to last, are the digits of a
	// position (least significant first) and of its input index (most
	// significant first). At a power-of-two size this is bit reversal.
	var radices []int
	for k := 1; k < m; k *= 3 {
		radices = append(radices, 3)
	}
	for k := m; k < n; k *= 2 {
		radices = append(radices, 2)
	}
	p.at = make([]int32, n)
	for pos := range p.at {
		q, i := pos, 0
		for _, r := range radices {
			i = i*r + q%r
			q /= r
		}
		p.at[i] = int32(pos)
	}
	// root(j, k) = exp(−2πi·j/k). For k = 2h its angle rounds exactly as
	// −π·j/h does (scaling by 2 is exact), the radix-2 roots of the
	// power-of-two plan.
	root := func(j, k int) complex128 {
		ang := -2 * math.Pi * float64(j) / float64(k)
		return complex(math.Cos(ang), math.Sin(ang))
	}
	for h := 3; h < m; h *= 3 {
		for j := 0; j < h; j++ {
			p.fwd.r3 = append(p.fwd.r3, root(j, 3*h), root(2*j, 3*h))
		}
	}
	for h := m; h < n; h <<= 1 {
		for j := 0; j < h; j++ {
			p.fwd.r2 = append(p.fwd.r2, root(j, 2*h))
		}
	}
	p.inv.r2, p.inv.r3 = conjugates(p.fwd.r2), conjugates(p.fwd.r3)
	p.fwd.c3, p.inv.c3 = math.Sqrt(3)/2, -math.Sqrt(3)/2
	return p
}

// conjugates returns the complex conjugates of w: the inverse twiddles.
func conjugates(w []complex128) []complex128 {
	c := make([]complex128, len(w))
	for i, v := range w {
		c[i] = complex(real(v), -imag(v))
	}
	return c
}

// transform runs the in-place FFT over the contiguous x[0:n] in direction d
// (&p.fwd or &p.inv); x holds the input in digit-reversed order (index i at
// x[at[i]]) and receives the output in natural order. Only outputs
// x[0:keep] are needed: when keep ≤ n/2 the last stage computes just those.
// The caller scales an inverse transform by 1/n itself — the Toeplitz
// matvec folds that factor into its spectrum so the hot path never needs a
// separate normalisation pass.
//
// Radix-2 stages run two at a time (stages h and 2h over blocks of 4h); the
// last stage always runs on its own so that it can be pruned.
//
//pdn:hot
func (p *fftPlan) transform(x []complex128, keep int, d *fftTwiddles) {
	n, m := p.n, p.m
	x = x[:n]
	h := 1
	switch {
	case m > 1:
		for s := 0; s < n; s += 3 {
			q := x[s : s+3]
			q[0], q[1], q[2] = radix3(q[0], q[1], q[2], d.c3)
		}
		for h = 3; h < m; h *= 3 {
			w := d.r3[h-3 : 3*h-3]
			for s := 0; s < n; s += 3 * h {
				radix3Stage(x[s:s+h], x[s+h:s+2*h], x[s+2*h:s+3*h], w, d.c3)
			}
		}
	case n >= 8:
		// Stages 1 and 2 inline: a call per block of four would cost more
		// than the block's butterflies, whose twiddles are 1, 1, 1 and the
		// stage-2 root r2[2] (the multiplies by 1 are skipped).
		w := d.r2[2]
		for s := 0; s < n; s += 4 {
			q := x[s : s+4]
			a0, a1 := q[0]+q[1], q[0]-q[1]
			a2, a3 := q[2]+q[3], q[2]-q[3]
			t := w * a3
			q[0], q[2], q[1], q[3] = a0+a2, a0-a2, a1+t, a1-t
		}
		h = 4
	}
	tw := d.r2
	for ; 4*h < n; h <<= 2 {
		o := h - m
		wa, wb, wc := tw[o:o+h], tw[o+h:o+2*h], tw[o+2*h:o+3*h]
		for s := 0; s < n; s += 4 * h {
			twoStages(x[s:s+h], x[s+h:s+2*h], x[s+2*h:s+3*h], x[s+3*h:s+4*h], wa, wb, wc)
		}
	}
	for ; h < n; h <<= 1 {
		w := tw[h-m : 2*h-m]
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

// radix3 is the length-3 DFT of (a0, a1, a2), already twiddled, with c the
// direction's c3: y0 = a0+a1+a2 and y1, y2 = a0 − (a1+a2)/2 ∓ i·c·(a1−a2).
func radix3(a0, a1, a2 complex128, c float64) (y0, y1, y2 complex128) {
	s, d := a1+a2, a1-a2
	mr, mi := real(a0)-0.5*real(s), imag(a0)-0.5*imag(s)
	dr, di := c*real(d), c*imag(d)
	return a0 + s, complex(mr+di, mi-dr), complex(mr-di, mi+dr)
}

// radix3Stage applies one radix-3 stage of span h = len(x0) to one block of
// 3h entries, given as its thirds x0..x2, with w the stage's twiddle pairs.
func radix3Stage(x0, x1, x2, w []complex128, c float64) {
	x1, x2, w = x1[:len(x0)], x2[:len(x0)], w[:2*len(x0)]
	for j := range x0 {
		x0[j], x1[j], x2[j] = radix3(x0[j], w[2*j]*x1[j], w[2*j+1]*x2[j], c)
	}
}

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
// n rows with row stride stride, keeping output rows [0, keep); input row r
// sits at row at[r], as for transform. It is
// row-blocked: each butterfly combines contiguous row segments, so the
// pass streams through memory instead of striding by a row per access.
//
//pdn:hot
func (p *fftPlan) columns(data []complex128, stride, cols, keep int, d *fftTwiddles) {
	n, m := p.n, p.m
	row := func(r int) []complex128 { return data[r*stride : r*stride+cols] }
	h := 1
	switch {
	case m > 1:
		for s := 0; s < n; s += 3 {
			radix3Rows1(row(s), row(s+1), row(s+2), d.c3)
		}
		for h = 3; h < m; h *= 3 {
			w := d.r3[h-3 : 3*h-3]
			for s := 0; s < n; s += 3 * h {
				for j := 0; j < h; j++ {
					r := s + j
					radix3Rows(row(r), row(r+h), row(r+2*h), w[2*j], w[2*j+1], d.c3)
				}
			}
		}
	case n >= 8:
		for s := 0; s < n; s += 4 {
			twoStageRows1(row(s), row(s+1), row(s+2), row(s+3), d.r2[2])
		}
		h = 4
	}
	tw := d.r2
	for ; 4*h < n; h <<= 2 {
		o := h - m
		for s := 0; s < n; s += 4 * h {
			for j := 0; j < h; j++ {
				r := s + j
				twoStageRows(row(r), row(r+h), row(r+2*h), row(r+3*h), tw[o+j], tw[o+h+j], tw[o+2*h+j])
			}
		}
	}
	for ; h < n; h <<= 1 {
		o := h - m
		if 2*h == n && keep <= h {
			for j := 0; j < keep; j++ {
				accumulate(row(j), row(j+h), tw[o+j])
			}
			return
		}
		for s := 0; s < n; s += 2 * h {
			for j := 0; j < h; j++ {
				butterfly(row(s+j), row(s+j+h), tw[o+j])
			}
		}
	}
}

// The row-segment kernels of the column pass apply one butterfly, or two
// stages' worth, with the same twiddles to every column of the segments.
// accumulate is the low half of a butterfly only; twoStageRows1 is
// twoStageRows for the first two stages, whose twiddles are 1, 1 and wc;
// radix3Rows1 is radix3Rows for the first radix-3 stage, whose twiddles
// are all 1.
// They are small leaf functions so that the loop state stays in registers.

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

func radix3Rows(x0, x1, x2 []complex128, w1, w2 complex128, c float64) {
	x1, x2 = x1[:len(x0)], x2[:len(x0)]
	for k := range x0 {
		x0[k], x1[k], x2[k] = radix3(x0[k], w1*x1[k], w2*x2[k], c)
	}
}

func radix3Rows1(x0, x1, x2 []complex128, c float64) {
	x1, x2 = x1[:len(x0)], x2[:len(x0)]
	for k := range x0 {
		x0[k], x1[k], x2[k] = radix3(x0[k], x1[k], x2[k], c)
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
// (both dimensions plan sizes, so even). The spectrum of real data is
// Hermitian, so the plan keeps only its half grid: h rows of hw = w/2+1
// complex entries, columns 0..w/2 of the full 2-D spectrum. Two real rows
// share one complex row transform (row r in the real parts, row r+1 in the
// imaginary parts); splitRows and mergeRows convert between such a packed
// row pair and two half-grid rows, and the column pass runs on the hw
// half-grid columns only.
type fftPlan2D struct {
	w, h, hw int
	row, col *fftPlan // 1-D plans along a row (size w) and down a column (size h)
}

func newFFTPlan2D(w, h int) *fftPlan2D {
	p := &fftPlan2D{w: w, h: h, hw: w/2 + 1, row: newFFTPlan(w)}
	if h == w {
		p.col = p.row
	} else {
		p.col = newFFTPlan(h)
	}
	return p
}

// line returns half-grid row r of g.
func (p *fftPlan2D) line(g []complex128, r int) []complex128 {
	return g[r*p.hw : (r+1)*p.hw]
}

// splitRows takes z, the length-w FFT of a packed row pair (grid row r in
// the real parts, row r+1 in the imaginary parts), and writes twice the
// half spectrum of each row into a and b (half-grid rows, hw long) — the
// caller folds the factor 2 into its pointwise spectrum. With Z the packed
// transform and m = (w−k) mod w, row r's spectrum is (Z[k] + conj(Z[m]))/2
// and row r+1's is (Z[k] − conj(Z[m]))/(2i).
//
//pdn:hot
func (p *fftPlan2D) splitRows(a, b, z []complex128) {
	w := p.w
	a, b = a[:p.hw], b[:p.hw]
	for k := range a {
		zk, zm := z[k], z[0]
		if k > 0 {
			zm = z[w-k]
		}
		a[k] = complex(real(zk)+real(zm), imag(zk)-imag(zm))
		b[k] = complex(imag(zk)+imag(zm), real(zm)-real(zk))
	}
}

// mergeRows is the inverse of splitRows: from half-grid rows a and b (the
// half spectra of two real rows) it builds the full length-w spectrum of
// the packed pair, a + i·b on columns ≤ w/2 and conj(a) + i·conj(b) on
// their mirrors, and stores column k at z[at[k]] (the row plan's at, to
// feed its transform; the identity for natural order). Columns 0 and w/2
// are their own mirrors and hold real spectra; their imaginary parts are
// roundoff, and only the real parts are kept.
//
//pdn:hot
func (p *fftPlan2D) mergeRows(z, a, b []complex128, at []int32) {
	w := p.w
	a, b, at = a[:p.hw], b[:p.hw], at[:w]
	z[at[0]] = complex(real(a[0]), real(b[0]))
	for k := 1; k < w/2; k++ {
		ak, bk := a[k], b[k]
		z[at[k]] = complex(real(ak)-imag(bk), imag(ak)+real(bk))
		z[at[w-k]] = complex(real(ak)+imag(bk), real(bk)-imag(ak))
	}
	z[at[w/2]] = complex(real(a[w/2]), real(b[w/2]))
}

// fftSize returns the smallest plan size ≥ n: the smallest even 2ᵃ·3ᵇ.
func fftSize(n int) int {
	best := 0
	for p3 := 2; ; p3 *= 3 {
		p := p3
		for p < n {
			p <<= 1
		}
		if best == 0 || p < best {
			best = p
		}
		if p3 >= n {
			return best
		}
	}
}
