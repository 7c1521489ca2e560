package mat

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"pdnsim/internal/simerr"
)

// fftAgainstDFTTol bounds the relative error between the planned FFT and a
// naive O(n²) DFT: both accumulate roundoff, so machine epsilon times a
// modest log-factor headroom.
const fftAgainstDFTTol = 1e-12

func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -2 * math.Pi
	if inverse {
		sign = 2 * math.Pi
	}
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := sign * float64(k) * float64(j) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 4, 6, 8, 12, 18, 24, 32, 48, 54, 72, 96, 128, 144} {
		p := newFFTPlan(n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		got := digitReversed(p, x)
		p.transform(got, n, &p.fwd)
		want := naiveDFT(x, false)
		var scale float64
		for _, w := range want {
			if a := cmplx.Abs(w); a > scale {
				scale = a
			}
		}
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > fftAgainstDFTTol*scale {
				t.Fatalf("n=%d: FFT[%d]=%v, DFT=%v", n, i, got[i], want[i])
			}
		}
		// Inverse (unscaled) round-trips to n·x.
		got = digitReversed(p, got)
		p.transform(got, n, &p.inv)
		for i := range got {
			if cmplx.Abs(got[i]-complex(float64(n), 0)*x[i]) > fftAgainstDFTTol*float64(n)*(1+cmplx.Abs(x[i])) {
				t.Fatalf("n=%d: inverse round-trip[%d]=%v, want %v", n, i, got[i], complex(float64(n), 0)*x[i])
			}
		}
	}
}

// digitReversed returns x in the input order of p's transforms.
func digitReversed(p *fftPlan, x []complex128) []complex128 {
	y := make([]complex128, len(x))
	for i, v := range x {
		y[p.at[i]] = v
	}
	return y
}

// refTransform is the plain strided mixed-radix FFT: the digit reversal
// (digitReversal) out of place, then every radix-3 and every radix-2 stage
// one at a time, each butterfly multiplying by its twiddle (j = 0 and the
// span-1 stage included), a column walked one stride at a time. The
// pruned, row-blocked 2-D transform must reproduce it entry for entry.
func refTransform(p *fftPlan, data []complex128, off, stride int, d *fftTwiddles) {
	n, m := p.n, p.m
	at := func(i int) *complex128 { return &data[off+i*stride] }
	src := make([]complex128, n)
	for i := range src {
		src[i] = *at(i)
	}
	for pos, i := range digitReversal(n) {
		*at(pos) = src[i]
	}
	for h := 1; h < m; h *= 3 {
		for s := 0; s < n; s += 3 * h {
			for j := 0; j < h; j++ {
				w1, w2 := complex(1, 0), complex(1, 0)
				if h > 1 {
					w1, w2 = d.r3[h-3+2*j], d.r3[h-3+2*j+1]
				}
				x0, x1, x2 := at(s+j), at(s+j+h), at(s+j+2*h)
				a0, a1, a2 := *x0, w1**x1, w2**x2
				sr, si := real(a1)+real(a2), imag(a1)+imag(a2)
				dr, di := d.c3*(real(a1)-real(a2)), d.c3*(imag(a1)-imag(a2))
				mr, mi := real(a0)-0.5*sr, imag(a0)-0.5*si
				*x0 = complex(real(a0)+sr, imag(a0)+si)
				*x1 = complex(mr+di, mi-dr)
				*x2 = complex(mr-di, mi+dr)
			}
		}
	}
	for h := m; h < n; h <<= 1 {
		for s := 0; s < n; s += 2 * h {
			for j := 0; j < h; j++ {
				lo, hi := at(s+j), at(s+j+h)
				t := d.r2[h-m+j] * *hi
				*hi = *lo - t
				*lo += t
			}
		}
	}
}

// digitReversal returns the input order of a decimation-in-time FFT of size
// n = 2ᵃ·3ᵇ whose radix-3 stages run first: position pos of the permuted
// array holds input index rev[pos]. It is built recursively: the last
// stage (radix 2) combines the transforms of the even and the odd inputs,
// each laid out in its own half; once only 3ᵇ inputs are left, the radix-3
// stages split them the same way by residue mod 3.
func digitReversal(n int) []int {
	if n == 1 {
		return []int{0}
	}
	r := 2
	if n%2 != 0 {
		r = 3
	}
	sub := digitReversal(n / r)
	rev := make([]int, 0, n)
	for q := 0; q < r; q++ {
		for _, i := range sub {
			rev = append(rev, q+r*i)
		}
	}
	return rev
}

// refTransform2D runs refTransform over every row, then every column, of
// the full grid: no row, column or stage is skipped.
func refTransform2D(p *fftPlan2D, data []complex128, inverse bool) {
	rtw, ctw := &p.row.fwd, &p.col.fwd
	if inverse {
		rtw, ctw = &p.row.inv, &p.col.inv
	}
	for r := 0; r < p.h; r++ {
		refTransform(p.row, data, r*p.w, 1, rtw)
	}
	for c := 0; c < p.w; c++ {
		refTransform(p.col, data, c, p.w, ctw)
	}
}

// gridValue returns the entry of x at point (c, r) of op's padded grid:
// the value of the unknown there, or 0 where none sits.
func gridValue(op *ToeplitzOp, x []float64, c, r int) float64 {
	if c < op.nx && r < op.ny {
		if s := op.slot[r*op.nx+c]; s != 0 {
			return x[s-1]
		}
	}
	return 0
}

// gatherGrid stores grid point (c, r) of an apply's output, read through
// at, into the unknown that sits there.
func gatherGrid(op *ToeplitzOp, at func(c, r int) float64) []float64 {
	dst := make([]float64, op.n)
	for i, s := range op.slot {
		if s != 0 {
			dst[s-1] = at(i%op.nx, i/op.nx)
		}
	}
	return dst
}

// refRealConvolve is the plain real-data algorithm behind MulVecTo (spec =
// op.spec) and the circulant branch of PrecondTo (spec = op.pinv), with
// nothing pruned or blocked: every row pair of the padded grid is packed
// and row transformed, every half-grid column is transformed both ways, and
// every row pair is merged and inverse transformed, all by refTransform.
// The applies must reproduce it entry for entry.
func refRealConvolve(op *ToeplitzOp, x, spec []float64) []float64 {
	p := op.plan
	g := make([]complex128, p.h*p.hw)
	z := make([]complex128, p.w)
	for r := 0; r < p.h; r += 2 {
		for c := range z {
			z[c] = complex(gridValue(op, x, c, r), gridValue(op, x, c, r+1))
		}
		refTransform(p.row, z, 0, 1, &p.row.fwd)
		p.splitRows(p.line(g, r), p.line(g, r+1), z)
	}
	for c := 0; c < p.hw; c++ {
		refTransform(p.col, g, c, p.hw, &p.col.fwd)
	}
	for i, s := range spec {
		g[i] = complex(real(g[i])*s, imag(g[i])*s)
	}
	for c := 0; c < p.hw; c++ {
		refTransform(p.col, g, c, p.hw, &p.col.inv)
	}
	out := make([]float64, p.w*p.h)
	natural := make([]int32, p.w)
	for c := range natural {
		natural[c] = int32(c)
	}
	for r := 0; r < p.h; r += 2 {
		p.mergeRows(z, p.line(g, r), p.line(g, r+1), natural)
		refTransform(p.row, z, 0, 1, &p.row.inv)
		for c, v := range z {
			out[r*p.w+c] = real(v)
			out[(r+1)*p.w+c] = imag(v)
		}
	}
	return gatherGrid(op, func(c, r int) float64 { return out[r*p.w+c] })
}

// refConvolve is the full complex-data convolution the real-data applies
// replaced: scatter into the whole padded grid, transform every row and
// column, multiply by the full spectrum, transform back. The embedding is
// even in each axis, so column kx of the full spectrum is column
// min(kx, px−kx) of the half grid; the factor 2 undoes the packing factor
// the half-grid spectra carry.
func refConvolve(op *ToeplitzOp, x, half []float64) []float64 {
	p := op.plan
	w := make([]complex128, p.w*p.h)
	for r := 0; r < p.h; r++ {
		for c := 0; c < p.w; c++ {
			w[r*p.w+c] = complex(gridValue(op, x, c, r), 0)
		}
	}
	refTransform2D(p, w, false)
	for r := 0; r < p.h; r++ {
		for c := 0; c < p.w; c++ {
			w[r*p.w+c] *= complex(2*half[r*p.hw+min(c, p.w-c)], 0)
		}
	}
	refTransform2D(p, w, true)
	return gatherGrid(op, func(c, r int) float64 { return real(w[r*p.w+c]) })
}

// Dense materialises the operator as a dense matrix straight from its
// kernel table (O(n²)): the reference the FFT applies are checked against.
func (op *ToeplitzOp) Dense() *Matrix {
	coords := make([][2]int, op.n)
	for i, s := range op.slot {
		if s != 0 {
			coords[s-1] = [2]int{i % op.nx, i / op.nx}
		}
	}
	m := New(op.n, op.n)
	for i, ci := range coords {
		for j, cj := range coords {
			m.Set(i, j, op.table[absInt(ci[1]-cj[1])*op.nx+absInt(ci[0]-cj[0])])
		}
	}
	return m
}

func TestFFTStridedMatchesContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n, stride := 16, 3
	p := newFFTPlan(n)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	cont := digitReversed(p, x)
	p.transform(cont, n, &p.fwd)
	spread := make([]complex128, n*stride+2)
	for i := range x {
		spread[1+i*stride] = x[i]
	}
	refTransform(p, spread, 1, stride, &p.fwd)
	for i := range x {
		if spread[1+i*stride] != cont[i] {
			t.Fatalf("strided FFT differs at %d: %v vs %v", i, spread[1+i*stride], cont[i])
		}
	}
}

// toeplitzMulVecRelTol is the agreement contract between the FFT-based
// matvec and the dense product: both are exact up to roundoff, so 1e-13
// relative (ISSUE 10's property-test bound).
const toeplitzMulVecRelTol = 1e-13

// randomKernelTable builds a decaying positive kernel table resembling the
// BEM panel integrals (self term largest, smooth 1/r-style decay).
func randomKernelTable(nx, ny int, rng *rand.Rand) []float64 {
	tb := make([]float64, nx*ny)
	for dy := 0; dy < ny; dy++ {
		for dx := 0; dx < nx; dx++ {
			r := math.Hypot(float64(dx), float64(dy))
			tb[dy*nx+dx] = 1/(1+r) + 0.01*rng.Float64()/(1+r*r)
		}
	}
	return tb
}

func fullGridCoords(nx, ny int) [][2]int {
	coords := make([][2]int, 0, nx*ny)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			coords = append(coords, [2]int{ix, iy})
		}
	}
	return coords
}

func TestToeplitzMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct{ nx, ny int }{
		{1, 1}, {2, 1}, {1, 5}, {3, 3}, {4, 4}, {5, 7}, {8, 8}, {9, 6}, {16, 16}, {13, 17},
	}
	for _, c := range cases {
		tb := randomKernelTable(c.nx, c.ny, rng)
		op, err := NewToeplitzOp(c.nx, c.ny, tb, fullGridCoords(c.nx, c.ny))
		if err != nil {
			t.Fatalf("%dx%d: %v", c.nx, c.ny, err)
		}
		dense := op.Dense()
		x := make([]float64, op.Size())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := op.MulVec(x)
		want := dense.MulVec(x)
		var scale float64
		for _, w := range want {
			if a := math.Abs(w); a > scale {
				scale = a
			}
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > toeplitzMulVecRelTol*scale {
				t.Fatalf("%dx%d: MulVec[%d]=%.17g, dense %.17g (scale %g)", c.nx, c.ny, i, got[i], want[i], scale)
			}
		}
	}
}

func TestToeplitzSubsetGridMatchesDenseSubmatrix(t *testing.T) {
	// An L-shaped subset of a 9x7 grid: the scatter/gather path must
	// reproduce the principal submatrix product exactly.
	rng := rand.New(rand.NewSource(43))
	nx, ny := 9, 7
	tb := randomKernelTable(nx, ny, rng)
	var coords [][2]int
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			if ix >= 5 && iy >= 4 {
				continue // notch
			}
			coords = append(coords, [2]int{ix, iy})
		}
	}
	op, err := NewToeplitzOp(nx, ny, tb, coords)
	if err != nil {
		t.Fatal(err)
	}
	dense := op.Dense()
	// Dense() must agree with the table definition entry by entry.
	for i, ci := range coords {
		for j, cj := range coords {
			dx, dy := absInt(ci[0]-cj[0]), absInt(ci[1]-cj[1])
			if dense.At(i, j) != tb[dy*nx+dx] {
				t.Fatalf("Dense[%d][%d] = %g, want table %g", i, j, dense.At(i, j), tb[dy*nx+dx])
			}
		}
	}
	x := make([]float64, op.Size())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := op.MulVec(x)
	want := dense.MulVec(x)
	var scale float64
	for _, w := range want {
		if a := math.Abs(w); a > scale {
			scale = a
		}
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > toeplitzMulVecRelTol*scale {
			t.Fatalf("subset MulVec[%d]=%.17g, dense %.17g", i, got[i], want[i])
		}
	}
}

func TestToeplitzMulVecDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	tb := randomKernelTable(12, 10, rng)
	op, err := NewToeplitzOp(12, 10, tb, fullGridCoords(12, 10))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, op.Size())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	first := op.MulVec(x)
	clone := op.Clone()
	for rep := 0; rep < 5; rep++ {
		again := op.MulVec(x)
		cloned := clone.MulVec(x)
		for i := range first {
			if again[i] != first[i] || cloned[i] != first[i] {
				t.Fatalf("matvec not bitwise deterministic at %d (rep %d): %v %v vs %v",
					i, rep, again[i], cloned[i], first[i])
			}
		}
	}
}

func TestToeplitzPreconditionerIsSPDApproximation(t *testing.T) {
	// A self-dominant kernel, whose embedding is positive; the 1/(1+r)
	// table of randomKernelTable has no circulant preconditioner to check.
	rng := rand.New(rand.NewSource(45))
	op, err := NewToeplitzOp(8, 8, selfDominantTable(8, 8), fullGridCoords(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !op.HasPreconditioner() {
		t.Fatal("self-dominant kernel lost its circulant preconditioner")
	}
	// M⁻¹ must be symmetric positive definite: check xᵀM⁻¹x > 0 and
	// symmetry via random vectors.
	n := op.Size()
	x := make([]float64, n)
	y := make([]float64, n)
	mx := make([]float64, n)
	my := make([]float64, n)
	for trial := 0; trial < 5; trial++ {
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		op.PrecondTo(mx, x)
		op.PrecondTo(my, y)
		if dot(x, mx) <= 0 {
			t.Fatalf("preconditioner not positive definite: xᵀM⁻¹x = %g", dot(x, mx))
		}
		// yᵀ(M⁻¹x) == xᵀ(M⁻¹y) up to roundoff.
		a, b := dot(y, mx), dot(x, my)
		if math.Abs(a-b) > 1e-10*(math.Abs(a)+math.Abs(b)+1) {
			t.Fatalf("preconditioner asymmetric: %g vs %g", a, b)
		}
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// selfDominantTable is a 1/r kernel with a dominant self term, like a BEM
// potential table: its circulant embedding is positive, so the operator
// carries a circulant preconditioner.
func selfDominantTable(nx, ny int) []float64 {
	tb := make([]float64, nx*ny)
	tb[0] = 6
	for i := 1; i < len(tb); i++ {
		tb[i] = 1 / math.Hypot(float64(i%nx), float64(i/nx))
	}
	return tb
}

// subsetCoords keeps the grid points of an nx×ny grid for which keep is
// true, in raster order.
func subsetCoords(nx, ny int, keep func(ix, iy int) bool) [][2]int {
	var coords [][2]int
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			if keep(ix, iy) {
				coords = append(coords, [2]int{ix, iy})
			}
		}
	}
	return coords
}

// realFFTMatchesComplexRelTol bounds, relative to the largest output, how
// far the real-data applies may drift from the full complex transform they
// replaced. Both are exact up to roundoff in the same O(log n)-stage
// transforms, so the difference is a few ulps of the largest entry
// (measured at most 4.1e-16 on the cases below); 1e-14 leaves headroom
// without hiding a wrong spectrum entry or a mismatched row pair, which are
// O(1) errors.
const realFFTMatchesComplexRelTol = 1e-14

// TestToeplitzPrunedFFTMatchesReference holds the pruned, row-blocked
// real-data transform to the plain real-data algorithm: MulVecTo and the
// circulant branch of PrecondTo must give == results, not merely close
// ones. It also holds both to the full complex transform within
// realFFTMatchesComplexRelTol.
func TestToeplitzPrunedFFTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	all := func(ix, iy int) bool { return true }
	cases := []struct {
		name   string
		nx, ny int
		keep   func(ix, iy int) bool
	}{
		{"1x1", 1, 1, all},
		{"1x9", 1, 9, all},
		{"9x1", 9, 1, all},
		{"2x3", 2, 3, all},
		{"4x8", 4, 8, all},
		{"32x32", 32, 32, all},
		{"33x33", 33, 33, all},
		{"39x35", 39, 35, all},
		{"L 39x35", 39, 35, func(ix, iy int) bool { return ix < 26 || iy < 23 }},
		{"holed 21x17", 21, 17, func(ix, iy int) bool { return rng.Float64() < 0.8 || (ix == 0 && iy == 0) }},
		{"ny=1 holed 12x1", 12, 1, func(ix, iy int) bool { return ix%3 != 1 }},
		{"unpaired last row 6x7", 6, 7, func(ix, iy int) bool { return iy < 6 || ix == 4 }},
	}
	for _, c := range cases {
		coords := subsetCoords(c.nx, c.ny, c.keep)
		op, err := NewToeplitzOp(c.nx, c.ny, selfDominantTable(c.nx, c.ny), coords)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !op.HasPreconditioner() {
			t.Fatalf("%s: self-dominant kernel lost its circulant preconditioner", c.name)
		}
		x := make([]float64, op.Size())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		x[0] = 0 // an exact zero in the scatter
		got := make([]float64, op.Size())
		for _, apply := range []struct {
			name string
			fn   func(dst, x []float64)
			spec []float64
		}{
			{"MulVecTo", op.MulVecTo, op.spec},
			{"PrecondTo", op.PrecondTo, op.pinv},
		} {
			apply.fn(got, x)
			want := refRealConvolve(op, x, apply.spec)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %s[%d] = %.17g, reference %.17g", c.name, apply.name, i, got[i], want[i])
				}
			}
			full := refConvolve(op, x, apply.spec)
			var scale, worst float64
			for i := range full {
				scale = math.Max(scale, math.Abs(full[i]))
				worst = math.Max(worst, math.Abs(got[i]-full[i]))
			}
			if worst > realFFTMatchesComplexRelTol*scale {
				t.Fatalf("%s %s: real-data apply differs from the complex transform by %.3g of %.3g (> %g relative)",
					c.name, apply.name, worst, scale, realFFTMatchesComplexRelTol)
			}
		}
	}
}

func TestToeplitzPrecondJacobiBranch(t *testing.T) {
	// The 1/(1+r) kernel's circulant embedding crosses zero on this grid,
	// so PrecondTo must fall back to diagonal scaling.
	rng := rand.New(rand.NewSource(47))
	tb := randomKernelTable(39, 35, rng)
	op, err := NewToeplitzOp(39, 35, tb, fullGridCoords(39, 35))
	if err != nil {
		t.Fatal(err)
	}
	if op.HasPreconditioner() {
		t.Fatal("expected an unusable circulant for the 1/(1+r) kernel on 39×35")
	}
	r := make([]float64, op.Size())
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	got := make([]float64, op.Size())
	op.PrecondTo(got, r)
	d := 1 / tb[0]
	for i := range r {
		if got[i] != d*r[i] {
			t.Fatalf("Jacobi PrecondTo[%d] = %g, want %g", i, got[i], d*r[i])
		}
	}
}

func TestToeplitzAppliesDoNotAllocate(t *testing.T) {
	op, err := NewToeplitzOp(39, 35, selfDominantTable(39, 35), fullGridCoords(39, 35))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, op.Size())
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	dst := make([]float64, op.Size())
	if a := testing.AllocsPerRun(5, func() { op.MulVecTo(dst, x) }); a != 0 {
		t.Fatalf("MulVecTo allocates %v times per call", a)
	}
	if a := testing.AllocsPerRun(5, func() { op.PrecondTo(dst, x) }); a != 0 {
		t.Fatalf("PrecondTo allocates %v times per call", a)
	}
}

func TestToeplitzRejectsRepeatedCoordinates(t *testing.T) {
	// Two unknowns on one grid point would share a scatter slot: the FFT
	// product silently disagreed with Dense() ([14 11 14] vs [18 12 18] for
	// x = {1, 2, 3}) before the constructor rejected them.
	_, err := NewToeplitzOp(2, 2, []float64{4, 1, 1, 0.5}, [][2]int{{0, 0}, {1, 0}, {0, 0}})
	if !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("repeated coordinate: err = %v, want ErrBadInput", err)
	}
}

// smallestPlanSize is the padded-size rule by brute force: the smallest
// even m ≥ n with no prime factor but 2 and 3.
func smallestPlanSize(n int) int {
	for m := max(n, 2); ; m++ {
		r := m
		for r%2 == 0 {
			r /= 2
		}
		for r%3 == 0 {
			r /= 3
		}
		if m%2 == 0 && r == 1 {
			return m
		}
	}
}

// TestToeplitzAppliesMatchGeneratedOracle draws random grids (nx, ny in
// [1, 50]) with random holes and random 1/r-like kernel tables, and holds
// every apply to an oracle that shares nothing with it: MulVecTo to the
// direct table product within toeplitzMulVecRelTol, the circulant branch of
// PrecondTo to the full complex transform within
// realFFTMatchesComplexRelTol (the Jacobi branch to diagonal scaling), and
// each padded axis to the smallest even 2ᵃ·3ᵇ ≥ 2n−1.
func TestToeplitzAppliesMatchGeneratedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	circulant := 0
	defer func() {
		if !t.Failed() && circulant < 10 {
			t.Errorf("only %d of 30 trials exercised the circulant preconditioner", circulant)
		}
	}()
	for trial := 0; trial < 30; trial++ {
		nx, ny := 1+rng.Intn(50), 1+rng.Intn(50)
		fill := []float64{1, 0.9, 0.6, 0.3}[trial%4]
		coords := subsetCoords(nx, ny, func(ix, iy int) bool { return rng.Float64() < fill })
		if len(coords) == 0 {
			coords = [][2]int{{rng.Intn(nx), rng.Intn(ny)}}
		}
		tb := make([]float64, nx*ny)
		tb[0] = 2 + 6*rng.Float64()
		for i := 1; i < len(tb); i++ {
			tb[i] = (1 + 0.1*rng.Float64()) / math.Hypot(float64(i%nx), float64(i/nx))
		}
		op, err := NewToeplitzOp(nx, ny, tb, coords)
		if err != nil {
			t.Fatalf("trial %d (%d×%d): %v", trial, nx, ny, err)
		}
		name := func() string { return fmt.Sprintf("trial %d (%d×%d, %d unknowns)", trial, nx, ny, len(coords)) }
		if px, py := op.PaddedDims(); px != smallestPlanSize(2*nx-1) || py != smallestPlanSize(2*ny-1) {
			t.Fatalf("%s: padded to %d×%d, want %d×%d", name(), px, py, smallestPlanSize(2*nx-1), smallestPlanSize(2*ny-1))
		}
		x := make([]float64, len(coords))
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, len(coords))
		op.MulVecTo(got, x)
		var scale, worst float64
		for i, ci := range coords {
			var s float64
			for j, cj := range coords {
				s += tb[absInt(ci[1]-cj[1])*nx+absInt(ci[0]-cj[0])] * x[j]
			}
			scale = math.Max(scale, math.Abs(s))
			worst = math.Max(worst, math.Abs(got[i]-s))
		}
		if worst > toeplitzMulVecRelTol*scale {
			t.Fatalf("%s: MulVecTo differs from the table product by %.3g of %.3g", name(), worst, scale)
		}
		op.PrecondTo(got, x)
		if !op.HasPreconditioner() {
			d := 1 / tb[0]
			for i := range x {
				if got[i] != d*x[i] {
					t.Fatalf("%s: Jacobi PrecondTo[%d] = %g, want %g", name(), i, got[i], d*x[i])
				}
			}
			continue
		}
		circulant++
		full := refConvolve(op, x, op.pinv)
		scale, worst = 0, 0
		for i := range full {
			scale = math.Max(scale, math.Abs(full[i]))
			worst = math.Max(worst, math.Abs(got[i]-full[i]))
		}
		if worst > realFFTMatchesComplexRelTol*scale {
			t.Fatalf("%s: PrecondTo differs from the complex transform by %.3g of %.3g", name(), worst, scale)
		}
	}
}
