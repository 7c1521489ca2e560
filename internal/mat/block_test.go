package mat

import (
	"math"
	"math/rand"
	"testing"
)

// kernelCmpTol bounds kernel-vs-naive comparisons that involve the dot
// kernel's accumulator reordering; gemmAcc itself reproduces the naive
// per-element order exactly and is compared bitwise.
const kernelCmpTol = 1e-12

// TestGemmAccMatchesNaive validates the blocked/tiled gemm kernel against
// the naive triple loop across shapes that exercise every remainder path
// (rows%4, k-panel remainders, single rows/cols) and both signs. Because
// the kernel accumulates each element's terms in the naive loop's order,
// the comparison is bitwise.
func TestGemmAccMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ rows, cols, kk int }{
		{1, 1, 1}, {3, 5, 4}, {4, 4, 4}, {7, 9, 11},
		{33, 17, 300}, {65, 64, 257}, {100, 1, 50}, {1, 100, 50},
	}
	for _, sh := range shapes {
		for _, neg := range []bool{false, true} {
			a := randMatrix(rng, sh.rows, sh.kk)
			b := randMatrix(rng, sh.kk, sh.cols)
			got := randMatrix(rng, sh.rows, sh.cols)
			want := got.Clone()

			gemmAcc(got.Data, sh.cols, a.Data, sh.kk, b.Data, sh.cols, sh.rows, sh.cols, sh.kk, neg)

			for i := 0; i < sh.rows; i++ {
				for k := 0; k < sh.kk; k++ {
					v := a.At(i, k)
					if neg {
						v = -v
					}
					for j := 0; j < sh.cols; j++ {
						want.Data[i*sh.cols+j] += v * b.At(k, j)
					}
				}
			}
			if i, ok := bitsEqual(got.Data, want.Data); !ok {
				t.Fatalf("%dx%dx%d neg=%v: gemmAcc diverges from naive at flat index %d: %g vs %g",
					sh.rows, sh.cols, sh.kk, neg, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestCGemmAccMatchesNaive is the complex analogue.
func TestCGemmAccMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	shapes := []struct{ rows, cols, kk int }{
		{1, 1, 1}, {2, 3, 5}, {5, 7, 9}, {32, 17, 40},
	}
	for _, sh := range shapes {
		for _, neg := range []bool{false, true} {
			a := CNew(sh.rows, sh.kk)
			b := CNew(sh.kk, sh.cols)
			for i := range a.Data {
				a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			for i := range b.Data {
				b.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			got := CNew(sh.rows, sh.cols)
			want := CNew(sh.rows, sh.cols)

			cgemmAcc(got.Data, sh.cols, a.Data, sh.kk, b.Data, sh.cols, sh.rows, sh.cols, sh.kk, neg)

			for i := 0; i < sh.rows; i++ {
				for k := 0; k < sh.kk; k++ {
					v := a.At(i, k)
					if neg {
						v = -v
					}
					for j := 0; j < sh.cols; j++ {
						want.Data[i*sh.cols+j] += v * b.At(k, j)
					}
				}
			}
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%dx%dx%d neg=%v: cgemmAcc diverges at %d: %v vs %v",
						sh.rows, sh.cols, sh.kk, neg, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestDotMatchesNaive: the 8-accumulator dot must agree with the sequential
// sum within reordering roundoff at every length (remainder loop included).
func TestDotMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 100, 401} {
		x := make([]float64, n)
		y := make([]float64, n)
		var want float64
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
			want += x[i] * y[i]
		}
		got := dot(x, y)
		scale := math.Abs(want) + float64(n)
		if math.Abs(got-want) > kernelCmpTol*scale {
			t.Fatalf("len %d: dot = %g, naive = %g", n, got, want)
		}
	}
}

// TestSyrkSubLowerMatchesNaive validates the Cholesky trailing update.
func TestSyrkSubLowerMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	rows, kk := 37, 23
	a := randMatrix(rng, rows, kk)
	got := randMatrix(rng, rows, rows)
	want := got.Clone()

	syrkSubLower(got.Data, rows, a.Data, kk, rows, kk, make([]float64, kk*rows))

	var amax float64
	for i := 0; i < rows; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k < kk; k++ {
				s += a.At(i, k) * a.At(j, k)
			}
			want.Data[i*rows+j] -= s
			if m := math.Abs(want.Data[i*rows+j]); m > amax {
				amax = m
			}
		}
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < rows; j++ {
			d := math.Abs(got.Data[i*rows+j] - want.Data[i*rows+j])
			if j > i && d != 0 {
				t.Fatalf("syrkSubLower touched the strict upper triangle at (%d,%d)", i, j)
			}
			if d > kernelCmpTol*(amax+1) {
				t.Fatalf("syrkSubLower diverges at (%d,%d): %g vs %g", i, j,
					got.Data[i*rows+j], want.Data[i*rows+j])
			}
		}
	}
}

// TestMulPropagatesNonFinite is the regression test for the zero-skip bug:
// Mul used to skip a == 0 terms as an optimisation, which silently dropped
// 0·Inf and 0·NaN products — a poisoned operand produced a clean-looking
// finite result instead of NaN. The kernel must propagate them exactly as
// IEEE 754 (and MulVec) do.
func TestMulPropagatesNonFinite(t *testing.T) {
	// C[0,0] = 0·Inf + 1·0 = NaN; the old zero-skip returned 0.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	b := FromRows([][]float64{{math.Inf(1), 0}, {0, 1}})
	c := a.Mul(b)
	if !math.IsNaN(c.At(0, 0)) {
		t.Fatalf("0·Inf must poison the product: C[0,0] = %g, want NaN", c.At(0, 0))
	}

	// Mul and MulVec must classify identically column by column.
	x := []float64{math.NaN(), 0}
	av := a.MulVec(x)
	for r := 0; r < a.Rows; r++ {
		var s float64
		for k := 0; k < a.Cols; k++ {
			s += a.At(r, k) * x[k]
		}
		if math.IsNaN(av[r]) != math.IsNaN(s) {
			t.Fatalf("MulVec row %d: NaN classification diverges from IEEE evaluation", r)
		}
	}

	// A NaN anywhere in A must reach every column of the affected row.
	an := FromRows([][]float64{{math.NaN(), 0}})
	bn := FromRows([][]float64{{1, 2}, {3, 4}})
	cn := an.Mul(bn)
	for j := 0; j < 2; j++ {
		if !math.IsNaN(cn.At(0, j)) {
			t.Fatalf("NaN operand dropped at column %d: got %g", j, cn.At(0, j))
		}
	}
}
