package mat

import (
	"fmt"
	"math/cmplx"

	"pdnsim/internal/simerr"
)

// CMatrix is a dense, row-major complex matrix.
type CMatrix struct {
	Rows, Cols int
	Data       []complex128
}

// CNew returns a zeroed r×c complex matrix.
func CNew(r, c int) *CMatrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &CMatrix{Rows: r, Cols: c, Data: make([]complex128, r*c)}
}

// CEye returns the n×n complex identity.
func CEye(n int) *CMatrix {
	m := CNew(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (r,c).
func (m *CMatrix) At(r, c int) complex128 { return m.Data[r*m.Cols+c] }

// Set assigns element (r,c).
func (m *CMatrix) Set(r, c int, v complex128) { m.Data[r*m.Cols+c] = v }

// Add accumulates v into element (r,c).
func (m *CMatrix) Add(r, c int, v complex128) { m.Data[r*m.Cols+c] += v }

// Clone returns a deep copy.
func (m *CMatrix) Clone() *CMatrix {
	out := CNew(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Mul returns the matrix product m·b, computed by the blocked parallel
// complex GEMM kernel (see block.go). As with the real Mul, every term is
// accumulated — no zero-skip — so 0·Inf / 0·NaN contributions propagate
// instead of being silently masked.
func (m *CMatrix) Mul(b *CMatrix) *CMatrix {
	if m.Cols != b.Rows {
		panic("mat: CMul dimension mismatch")
	}
	out := CNew(m.Rows, b.Cols)
	cgemmAcc(out.Data, b.Cols, m.Data, m.Cols, b.Data, b.Cols, m.Rows, b.Cols, m.Cols, false)
	return out
}

// MulVec returns m·x.
func (m *CMatrix) MulVec(x []complex128) []complex128 {
	if m.Cols != len(x) {
		panic("mat: CMulVec dimension mismatch")
	}
	out := make([]complex128, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s complex128
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// CLU is a complex LU factorisation with partial pivoting.
type CLU struct {
	lu  *CMatrix
	piv []int
}

// NewCLU factors a square complex matrix with partial pivoting. Large
// factorisations use the blocked parallel path, mirroring NewLU.
func NewCLU(a *CMatrix) (*CLU, error) {
	if a.Rows != a.Cols {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mat: CLU requires a square matrix")
	}
	n := a.Rows
	f := &CLU{lu: a.Clone(), piv: make([]int, n)}
	for i := range f.piv {
		f.piv[i] = i
	}
	var err error
	if n < luBlockMin {
		err = cluFactorPanel(f, 0, n)
	} else {
		err = cluFactorBlocked(f)
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// cluFactorPanel is the complex analogue of luFactorPanel: classic
// right-looking elimination on columns [k0, k1), updating columns < k1 only.
func cluFactorPanel(f *CLU, k0, k1 int) error {
	n := f.lu.Rows
	lu := f.lu.Data
	for k := k0; k < k1; k++ {
		p, pmax := k, cmplx.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := cmplx.Abs(lu[i*n+k]); a > pmax {
				p, pmax = i, a
			}
		}
		if err := checkPivot(pmax, k); err != nil {
			return err
		}
		if p != k {
			rk := lu[k*n : (k+1)*n]
			rp := lu[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivot
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			caxpy1(lu[i*n+k+1:i*n+k1], lu[k*n+k+1:k*n+k1], -m)
		}
	}
	return nil
}

// cluFactorBlocked mirrors luFactorBlocked for complex matrices: panel
// factorisation, parallel unit-lower substitution through the U12 block,
// then one parallel complex GEMM on the trailing matrix.
func cluFactorBlocked(f *CLU) error {
	n := f.lu.Rows
	lu := f.lu.Data
	for k0 := 0; k0 < n; k0 += luPanel {
		k1 := minInt(k0+luPanel, n)
		if err := cluFactorPanel(f, k0, k1); err != nil {
			return err
		}
		if k1 >= n {
			break
		}
		wide := n - k1
		nchunk := gemmBlocks(k1-k0, wide, 4*(k1-k0))
		chunk := (wide + nchunk - 1) / nchunk
		ParallelFor(nchunk, func(ci int) {
			c0 := k1 + ci*chunk
			c1 := minInt(c0+chunk, n)
			for k := k0; k < k1; k++ {
				rk := lu[k*n+c0 : k*n+c1]
				for i := k + 1; i < k1; i++ {
					m := lu[i*n+k]
					if m == 0 {
						continue
					}
					caxpy1(lu[i*n+c0:i*n+c1], rk, -m)
				}
			}
		})
		cgemmAcc(lu[k1*n+k1:], n, lu[k1*n+k0:], n, lu[k0*n+k1:], n, n-k1, n-k1, k1-k0, true)
	}
	return nil
}

// Solve solves A·x = b. Non-finite entries in b are rejected up front so a
// NaN stimulus cannot propagate silently through the substitutions.
func (f *CLU) Solve(b []complex128) ([]complex128, error) {
	n := f.lu.Rows
	if len(b) != n {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mat: rhs length mismatch")
	}
	for i, v := range b {
		if cmplx.IsNaN(v) || cmplx.IsInf(v) {
			return nil, simerr.Tagf(simerr.ErrBadInput, "mat: non-finite right-hand side entry at index %d", i)
		}
	}
	x := make([]complex128, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	lu := f.lu.Data
	for i := 1; i < n; i++ {
		x[i] -= cdot(lu[i*n:i*n+i], x[:i])
	}
	for i := n - 1; i >= 0; i-- {
		s := cdot(lu[i*n+i+1:(i+1)*n], x[i+1:])
		d := lu[i*n+i]
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = (x[i] - s) / d
	}
	return x, nil
}

// SolveMatrix solves A·X = B; the independent columns run in parallel when
// the work is large enough.
func (f *CLU) SolveMatrix(b *CMatrix) (*CMatrix, error) {
	n := f.lu.Rows
	if b.Rows != n {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mat: rhs row count mismatch")
	}
	out := CNew(n, b.Cols)
	errs := make([]error, b.Cols)
	solveCol := func(c int) {
		col := make([]complex128, n)
		for r := 0; r < n; r++ {
			col[r] = b.At(r, c)
		}
		x, err := f.Solve(col)
		if err != nil {
			errs[c] = err
			return
		}
		for r := 0; r < n; r++ {
			out.Set(r, c, x[r])
		}
	}
	if 4*n*n*b.Cols < parallelMinFlops {
		for c := 0; c < b.Cols; c++ {
			solveCol(c)
		}
	} else {
		ParallelFor(b.Cols, solveCol)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// CSolve solves A·x = b with a one-shot complex LU factorisation.
func CSolve(a *CMatrix, b []complex128) ([]complex128, error) {
	f, err := NewCLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// CInverse returns A⁻¹ for a complex matrix.
func CInverse(a *CMatrix) (*CMatrix, error) {
	f, err := NewCLU(a)
	if err != nil {
		return nil, err
	}
	return f.SolveMatrix(CEye(a.Rows))
}
