package mat

import (
	"math"
	"math/rand"
	"testing"
)

// Micro-benchmarks for the dense kernels at the package's representative
// extraction size (n = 400 is a ~20×20-cell plane pair with ports and extra
// nodes). scripts/bench.sh records these into the BENCH_<date>.json
// trajectory next to the end-to-end figure benchmarks.

const benchN = 400

func benchMatrix(seed int64, r, c int) *Matrix {
	return randMatrix(rand.New(rand.NewSource(seed)), r, c)
}

func BenchmarkLU400(b *testing.B) {
	a := benchMatrix(1, benchN, benchN)
	for i := 0; i < benchN; i++ {
		a.Set(i, i, a.At(i, i)+float64(benchN)) // keep it comfortably nonsingular
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewLU(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCLU400(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := CNew(benchN, benchN)
	for i := range a.Data {
		a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for i := 0; i < benchN; i++ {
		a.Set(i, i, a.At(i, i)+complex(float64(benchN), 0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCLU(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMul400(b *testing.B) {
	x := benchMatrix(3, benchN, benchN)
	y := benchMatrix(4, benchN, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(y)
	}
}

func BenchmarkCholesky400(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a := randSPD(rng, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCholeskySolveMatrix400 times the blocked multi-RHS solve behind
// the dense reduction: a 400×400 factor against 400 right-hand sides (the
// shape of an explicit inverse).
func BenchmarkCholeskySolveMatrix400(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	f, err := NewCholesky(randSPD(rng, benchN))
	if err != nil {
		b.Fatal(err)
	}
	rhs := randMatrix(rng, benchN, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.SolveMatrix(rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkToeplitzMatvec times the FFT-accelerated block-Toeplitz matvec at
// a 64×64 grid (n = 4096 — a dense matrix of this size would hold 16.8M
// entries). The allocs/op column is part of the contract: MulVecTo is
// //pdn:hot and must stay allocation-free.
func BenchmarkToeplitzMatvec(b *testing.B) {
	const nx, ny = 64, 64
	table := make([]float64, nx*ny)
	for dy := 0; dy < ny; dy++ {
		for dx := 0; dx < nx; dx++ {
			table[dy*nx+dx] = 1 / (1 + math.Hypot(float64(dx), float64(dy)))
		}
	}
	coords := make([][2]int, 0, nx*ny)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			coords = append(coords, [2]int{x, y})
		}
	}
	op, err := NewToeplitzOp(nx, ny, table, coords)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, op.Size())
	dst := make([]float64, op.Size())
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.MulVecTo(dst, x)
	}
	b.ReportMetric(float64(op.Size()), "n")
}

// lShapedToeplitz builds the operator the Toeplitz micro-benchmarks share:
// a 39×35 grid with a 13×12 corner notched out (an L-shaped plane of 1209
// cells — the size class of the extract-operator boards, padded to a 96×72
// circulant). The kernel is 1/r with a dominant self term, like a
// BEM potential table, so its circulant preconditioner is usable.
func lShapedToeplitz(b *testing.B) *ToeplitzOp {
	const nx, ny = 39, 35
	table := make([]float64, nx*ny)
	table[0] = 4
	for i := 1; i < len(table); i++ {
		table[i] = 1 / math.Hypot(float64(i%nx), float64(i/nx))
	}
	var coords [][2]int
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if x >= 26 && y >= 23 {
				continue
			}
			coords = append(coords, [2]int{x, y})
		}
	}
	op, err := NewToeplitzOp(nx, ny, table, coords)
	if err != nil {
		b.Fatal(err)
	}
	return op
}

// BenchmarkToeplitzMatvecSubset times MulVecTo on the L-shaped subset: the
// matvec inside every projected-CG and capacitance-CG iteration of an
// operator-path extraction.
func BenchmarkToeplitzMatvecSubset(b *testing.B) {
	op := lShapedToeplitz(b)
	x := make([]float64, op.Size())
	dst := make([]float64, op.Size())
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.MulVecTo(dst, x)
	}
	b.ReportMetric(float64(op.Size()), "n")
}

// BenchmarkToeplitzPrecond times the circulant preconditioner apply on the
// same subset (the capacitance CG runs one per iteration).
func BenchmarkToeplitzPrecond(b *testing.B) {
	op := lShapedToeplitz(b)
	if op.pinv == nil {
		b.Fatal("benchmark kernel has no usable circulant preconditioner")
	}
	r := make([]float64, op.Size())
	dst := make([]float64, op.Size())
	for i := range r {
		r[i] = math.Cos(float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.PrecondTo(dst, r)
	}
	b.ReportMetric(float64(op.Size()), "n")
}
