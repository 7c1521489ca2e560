package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func matAlmostEq(t *testing.T, a, b *Matrix, tol float64) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("dimension mismatch: %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := range a.Data {
		if !almostEq(a.Data[i], b.Data[i], tol) {
			t.Fatalf("entry %d differs: %g vs %g", i, a.Data[i], b.Data[i])
		}
	}
}

func randMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// randSPD builds a random symmetric positive-definite matrix A = BᵀB + n·I.
func randSPD(rng *rand.Rand, n int) *Matrix {
	b := randMatrix(rng, n, n)
	a := b.T().Mul(b)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("bad shape: %+v", m)
	}
	m.Set(1, 2, 4.5)
	if m.At(1, 2) != 4.5 {
		t.Fatalf("Set/At roundtrip failed")
	}
	m.Add(1, 2, 0.5)
	if m.At(1, 2) != 5 {
		t.Fatalf("Add failed: %g", m.At(1, 2))
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestEye(t *testing.T) {
	e := Eye(3)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			want := 0.0
			if r == c {
				want = 1
			}
			if e.At(r, c) != want {
				t.Fatalf("Eye(3)[%d][%d] = %g", r, c, e.At(r, c))
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("bad transpose shape")
	}
	if mt.At(2, 1) != 6 || mt.At(0, 1) != 4 {
		t.Fatalf("bad transpose values: %v", mt)
	}
	matAlmostEq(t, m, mt.T(), 0)
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := a.Mul(b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	matAlmostEq(t, got, want, 0)
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	got := a.MulVec([]float64{1, -1})
	if got[0] != -1 || got[1] != -1 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestMulIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(8)
		a := randMatrix(rng, n, n)
		matAlmostEq(t, a.Mul(Eye(n)), a, 1e-14)
		matAlmostEq(t, Eye(n).Mul(a), a, 1e-14)
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		a, b, c := randMatrix(rng, n, n), randMatrix(rng, n, n), randMatrix(rng, n, n)
		lhs := a.Mul(b).Mul(c)
		rhs := a.Mul(b.Mul(c))
		for i := range lhs.Data {
			if !almostEq(lhs.Data[i], rhs.Data[i], 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeOfProductProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a, b := randMatrix(rng, r, k), randMatrix(rng, k, c)
		lhs := a.Mul(b).T()
		rhs := b.T().Mul(a.T())
		for i := range lhs.Data {
			if !almostEq(lhs.Data[i], rhs.Data[i], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSubmatrix(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := m.Submatrix([]int{0, 2}, []int{1, 2})
	want := FromRows([][]float64{{2, 3}, {8, 9}})
	matAlmostEq(t, s, want, 0)
}

func TestSymmetric(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {2, 1}})
	if !m.IsSymmetric(1e-12) {
		t.Fatal("expected symmetric")
	}
	m.Set(0, 1, 2.5)
	if m.IsSymmetric(1e-12) {
		t.Fatal("expected asymmetric")
	}
	m.Symmetrize()
	if m.At(0, 1) != m.At(1, 0) || m.At(0, 1) != 2.25 {
		t.Fatalf("Symmetrize wrong: %v", m)
	}
}

func TestLUSolveKnown(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 3, x + 3y = 5 → x = 4/5, y = 7/5
	if !almostEq(x[0], 0.8, 1e-12) || !almostEq(x[1], 1.4, 1e-12) {
		t.Fatalf("solution = %v", x)
	}
}

func TestLUSolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := randMatrix(rng, n, n)
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)) // keep well conditioned
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		r := a.MulVec(x)
		for i := range r {
			if !almostEq(r[i], b[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := NewLU(a); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestLUPivoting(t *testing.T) {
	// Zero on the diagonal requires pivoting.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Fatalf("pivoted solve wrong: %v", x)
	}
}

func TestLUDet(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	f, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), -2, 1e-12) {
		t.Fatalf("det = %g", f.Det())
	}
}

func TestInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(10)
		a := randMatrix(rng, n, n)
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		inv, err := Inverse(a)
		if err != nil {
			t.Fatal(err)
		}
		matAlmostEq(t, a.Mul(inv), Eye(n), 1e-9)
	}
}

func TestCholeskyKnown(t *testing.T) {
	a := FromRows([][]float64{{4, 2}, {2, 3}})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := ch.L()
	matAlmostEq(t, l.Mul(l.T()), a, 1e-12)
	x, err := ch.solveVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	r := a.MulVec(x)
	if !almostEq(r[0], 1, 1e-12) || !almostEq(r[1], 1, 1e-12) {
		t.Fatalf("chol solve residual: %v", r)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
}

func TestCholeskySolveMatchesLUProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := randSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x1, err := ch.solveVec(b)
		if err != nil {
			return false
		}
		x2, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x1 {
			if !almostEq(x1[i], x2[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestInverseSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randSPD(rng, 6)
	inv, err := InverseSPD(a)
	if err != nil {
		t.Fatal(err)
	}
	matAlmostEq(t, a.Mul(inv), Eye(6), 1e-9)
}

func TestJacobiEigenKnown(t *testing.T) {
	// Eigenvalues of [[2,1],[1,2]] are 1 and 3.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := JacobiEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(vals[0], 1, 1e-10) || !almostEq(vals[1], 3, 1e-10) {
		t.Fatalf("eigenvalues = %v", vals)
	}
	// Verify A·v = λ·v for each column.
	for j := 0; j < 2; j++ {
		v := []float64{vecs.At(0, j), vecs.At(1, j)}
		av := a.MulVec(v)
		for i := range av {
			if !almostEq(av[i], vals[j]*v[i], 1e-10) {
				t.Fatalf("eigenpair %d fails: %v vs %v", j, av, v)
			}
		}
	}
}

func TestJacobiEigenDiagonal(t *testing.T) {
	a := FromRows([][]float64{{5, 0, 0}, {0, -2, 0}, {0, 0, 1}})
	vals, _, err := JacobiEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-2, 1, 5}
	for i := range want {
		if !almostEq(vals[i], want[i], 1e-12) {
			t.Fatalf("vals = %v", vals)
		}
	}
}

func TestJacobiEigenProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(8)
		a := randSPD(rng, n)
		vals, vecs, err := JacobiEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		// Trace preserved.
		tr := 0.0
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
		}
		sum := 0.0
		for _, v := range vals {
			sum += v
			if v <= 0 {
				t.Fatalf("SPD eigenvalue not positive: %v", vals)
			}
		}
		if !almostEq(tr, sum, 1e-8) {
			t.Fatalf("trace %g != eigenvalue sum %g", tr, sum)
		}
		// Orthogonality of eigenvectors.
		vtv := vecs.T().Mul(vecs)
		matAlmostEq(t, vtv, Eye(n), 1e-8)
	}
}

func TestGeneralizedSymEigen(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 4
	a := randSPD(rng, n)
	b := randSPD(rng, n)
	vals, vecs, err := GeneralizedSymEigen(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Check A·x = λ·B·x and XᵀBX = I.
	for j := 0; j < n; j++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = vecs.At(i, j)
		}
		ax := a.MulVec(x)
		bx := b.MulVec(x)
		for i := range ax {
			if !almostEq(ax[i], vals[j]*bx[i], 1e-7) {
				t.Fatalf("generalized eigenpair %d fails: %g vs %g", j, ax[i], vals[j]*bx[i])
			}
		}
	}
	xtbx := vecs.T().Mul(b).Mul(vecs)
	matAlmostEq(t, xtbx, Eye(n), 1e-7)
}

func TestComplement(t *testing.T) {
	got := Complement(5, []int{1, 3})
	want := []int{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("Complement = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Complement = %v", got)
		}
	}
}
