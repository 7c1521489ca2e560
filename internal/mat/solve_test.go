package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pdnsim/internal/simerr"
)

// Tests of the blocked multi-RHS triangular solves (block.go triSolve) and
// the Gram product against their column-at-a-time and explicit references.

// blockedSolveNs and blockedSolveWidths cover a single unknown, both sides of the triBlock
// boundary and a multi-block system, against single-column, odd, exactly
// one-chunk, one-chunk-plus-one and many-chunk right-hand sides.
var (
	blockedSolveNs     = []int{1, triBlock - 1, triBlock, triBlock + 1, 200, 401}
	blockedSolveWidths = []int{1, 7, triChunk, triChunk + 1, 300}
)

// colSolve solves every column of b with solve and assembles the result.
func colSolve(t *testing.T, b *Matrix, solve func([]float64) ([]float64, error)) *Matrix {
	t.Helper()
	out := New(b.Rows, b.Cols)
	col := make([]float64, b.Rows)
	for c := 0; c < b.Cols; c++ {
		for r := range col {
			col[r] = b.At(r, c)
		}
		x, err := solve(col)
		if err != nil {
			t.Fatal(err)
		}
		for r, v := range x {
			out.Set(r, c, v)
		}
	}
	return out
}

// requireClose asserts |got − want| ≤ luEquivRelTol·max|want| entrywise.
func requireClose(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	scale := want.MaxAbs()
	for i := range want.Data {
		if d := math.Abs(got.Data[i] - want.Data[i]); !(d <= luEquivRelTol*scale) {
			t.Fatalf("%s diverges at flat index %d: %g vs %g (Δ %g, scale %g)",
				what, i, got.Data[i], want.Data[i], d, scale)
		}
	}
}

// TestBlockedSolveMatchesColumnSolve pins Cholesky.SolveMatrix and
// LU.SolveMatrix to per-column Solve within luEquivRelTol: the blocked back
// substitution subtracts the out-of-block terms before the in-block ones,
// which reorders each sum relative to the column loop.
func TestBlockedSolveMatchesColumnSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, n := range blockedSolveNs {
		spd := randSPD(rng, n)
		gen := randMatrix(rng, n, n)
		for i := 0; i < n; i++ {
			gen.Add(i, i, float64(n))
		}
		ch, err := NewCholesky(spd)
		if err != nil {
			t.Fatal(err)
		}
		lu, err := NewLU(gen)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range blockedSolveWidths {
			t.Run(fmt.Sprintf("n=%d/m=%d", n, m), func(t *testing.T) {
				b := randMatrix(rng, n, m)
				got, err := ch.SolveMatrix(b)
				if err != nil {
					t.Fatal(err)
				}
				requireClose(t, "Cholesky.SolveMatrix", got, colSolve(t, b, ch.Solve))
				got, err = lu.SolveMatrix(b)
				if err != nil {
					t.Fatal(err)
				}
				requireClose(t, "LU.SolveMatrix", got, colSolve(t, b, lu.Solve))
			})
		}
	}
}

// staircase zeroes the entries of b above a per-column first row that grows
// with the column index — the leading-zero profile of an incidence or
// identity right-hand side, which the forward solve and Gram skip.
func staircase(b *Matrix) *Matrix {
	for c := 0; c < b.Cols; c++ {
		for r := 0; r < c*b.Rows/(b.Cols+1); r++ {
			b.Set(r, c, 0)
		}
	}
	return b
}

// TestSolveLowerMatchesForwardSubstitution: the blocked forward solve
// subtracts each row's terms in ascending column order — the sequence of
// the scalar loop — so it agrees with that loop bit for bit, also when it
// skips the leading zero rows of a sparse right-hand side.
func TestSolveLowerMatchesForwardSubstitution(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range blockedSolveNs {
		ch, err := NewCholesky(randSPD(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		l := ch.l.Data
		for _, b := range []*Matrix{randMatrix(rng, n, triChunk+1), staircase(randMatrix(rng, n, 3*triChunk))} {
			y, err := ch.SolveLower(b)
			if err != nil {
				t.Fatal(err)
			}
			want := colSolve(t, b, func(col []float64) ([]float64, error) {
				for i := 0; i < n; i++ {
					s := col[i]
					for j := 0; j < i; j++ {
						s -= l[i*n+j] * col[j]
					}
					col[i] = s / l[i*n+i]
				}
				return col, nil
			})
			if i, ok := bitsEqual(y.Data, want.Data); !ok {
				t.Fatalf("n=%d m=%d: SolveLower diverges from forward substitution at flat index %d: %g vs %g",
					n, b.Cols, i, y.Data[i], want.Data[i])
			}
		}
	}
}

// TestBlockedSolveSerialParallelBitwise: column chunks share no output, so
// the solves and the Gram product are bitwise identical at GOMAXPROCS 1
// and 2.
func TestBlockedSolveSerialParallelBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	n, m := 401, 300
	spd := randSPD(rng, n)
	gen := randMatrix(rng, n, n)
	for i := 0; i < n; i++ {
		gen.Add(i, i, float64(n))
	}
	b := randMatrix(rng, n, m)
	run := func() []*Matrix {
		ch, err := NewCholesky(spd)
		if err != nil {
			t.Fatal(err)
		}
		lu, err := NewLU(gen)
		if err != nil {
			t.Fatal(err)
		}
		x, err := ch.SolveMatrix(b)
		if err != nil {
			t.Fatal(err)
		}
		y, err := ch.SolveLower(b)
		if err != nil {
			t.Fatal(err)
		}
		z, err := lu.SolveMatrix(b)
		if err != nil {
			t.Fatal(err)
		}
		return []*Matrix{x, y, z, Gram(y)}
	}
	var serial, parallel []*Matrix
	withGOMAXPROCS(t, 1, func() { serial = run() })
	withGOMAXPROCS(t, 2, func() { parallel = run() })
	for k, name := range []string{"Cholesky.SolveMatrix", "SolveLower", "LU.SolveMatrix", "Gram"} {
		if i, ok := bitsEqual(serial[k].Data, parallel[k].Data); !ok {
			t.Fatalf("%s: GOMAXPROCS 1 and 2 diverge at flat index %d: %g vs %g",
				name, i, serial[k].Data[i], parallel[k].Data[i])
		}
	}
}

// TestGramMatchesTransposeProduct: Gram reads Y as its own transpose and
// accumulates each entry in the same ascending order as Yᵀ.Mul(Y), so the
// two agree bit for bit (the mirrored upper triangle included, because
// each product commutes; the leading zero terms Gram skips on a staircase
// Y are exact zeros).
func TestGramMatchesTransposeProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, sh := range [][3]int{{0, 3, 0}, {3, 0, 0}, {1, 1, 0}, {5, 40, 0}, {300, 70, 0}, {gemmKBlock + 9, 130, 0},
		{600, 300, 1}, {40, 90, 1}} {
		y := randMatrix(rng, sh[0], sh[1])
		if sh[2] == 1 {
			staircase(y)
		}
		got, want := Gram(y), y.T().Mul(y)
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("%dx%d: Gram shape %dx%d, want %dx%d", sh[0], sh[1], got.Rows, got.Cols, want.Rows, want.Cols)
		}
		if i, ok := bitsEqual(got.Data, want.Data); !ok {
			t.Fatalf("%dx%d: Gram diverges from Yᵀ·Y at flat index %d: %g vs %g",
				sh[0], sh[1], i, got.Data[i], want.Data[i])
		}
	}
}

// TestTriSolveAllocationFree: the //pdn:hot triangular kernel (and the
// gemmRows/axpy kernels under it) allocates nothing.
func TestTriSolveAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	n, m := 2*triBlock+5, 9
	ch, err := NewCholesky(randSPD(rng, n))
	if err != nil {
		t.Fatal(err)
	}
	x := randMatrix(rng, n, m)
	allocs := testing.AllocsPerRun(5, func() {
		triSolve(ch.l.Data, n, 1, x.Data, m, n, m, false, false)
		triSolve(ch.l.Data, 1, n, x.Data, m, n, m, true, false)
	})
	if allocs != 0 {
		t.Fatalf("triSolve allocated %v times per run", allocs)
	}
}

// TestSolveEntryPointsRejectNonFiniteRHS: a NaN or Inf right-hand side is
// bad input for every real solve entry point, Cholesky included, instead of
// spreading through the substitutions.
func TestSolveEntryPointsRejectNonFiniteRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	n := 6
	ch, err := NewCholesky(randSPD(rng, n))
	if err != nil {
		t.Fatal(err)
	}
	lu, err := NewLU(randSPD(rng, n))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		vec := make([]float64, n)
		vec[3] = bad
		mtx := New(n, 4)
		mtx.Set(2, 1, bad)
		for name, solve := range map[string]func() error{
			"Cholesky.Solve":       func() error { _, err := ch.Solve(vec); return err },
			"Cholesky.SolveMatrix": func() error { _, err := ch.SolveMatrix(mtx); return err },
			"Cholesky.SolveLower":  func() error { _, err := ch.SolveLower(mtx); return err },
			"LU.Solve":             func() error { _, err := lu.Solve(vec); return err },
			"LU.SolveMatrix":       func() error { _, err := lu.SolveMatrix(mtx); return err },
		} {
			if err := solve(); !errors.Is(err, simerr.ErrBadInput) {
				t.Fatalf("%s with a %g right-hand side: want ErrBadInput, got %v", name, bad, err)
			}
		}
	}
}
