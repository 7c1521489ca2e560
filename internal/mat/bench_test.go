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

func BenchmarkMulVec400(b *testing.B) {
	a := benchMatrix(6, benchN, benchN)
	x := make([]float64, benchN)
	for i := range x {
		x[i] = float64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(x)
	}
}
