package mat

import "pdnsim/internal/simerr"

// Matrix operations only the tests use: the dense references (Solve,
// Inverse, Det, Cholesky.solveVec) the solvers are checked against, and the
// constructors and accessors that keep fixtures short. The solvers never
// call them.

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("mat: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// solveVec solves A·x = b one column at a time from the Cholesky factor:
// forward substitution with L, then back substitution with Lᵀ. It is the
// plain reference the blocked SolveMatrix is pinned to.
func (c *Cholesky) solveVec(b []float64) ([]float64, error) {
	n := c.l.Rows
	if len(b) != n {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mat: rhs length mismatch")
	}
	ld := c.l.Data
	x := append([]float64(nil), b...)
	for i := 0; i < n; i++ {
		s := x[i]
		for j, v := range ld[i*n : i*n+i] {
			s -= v * x[j]
		}
		x[i] = s / ld[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= ld[j*n+i] * x[j]
		}
		x[i] = s / ld[i*n+i]
	}
	return x, nil
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	n := f.lu.Rows
	d := float64(f.sign)
	for i := 0; i < n; i++ {
		d *= f.lu.Data[i*n+i]
	}
	return d
}

// Solve solves A·x = b by LU factorisation (convenience, one-shot).
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := NewLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Inverse returns A⁻¹ computed by LU factorisation.
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := NewLU(a)
	if err != nil {
		return nil, err
	}
	return f.SolveMatrix(Eye(a.Rows))
}

// CFromReal promotes a real matrix to complex.
func CFromReal(m *Matrix) *CMatrix {
	out := CNew(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = complex(v, 0)
	}
	return out
}

// Scale multiplies every entry by s in place and returns m.
func (m *CMatrix) Scale(s complex128) *CMatrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddM returns m + b.
func (m *CMatrix) AddM(b *CMatrix) *CMatrix {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("mat: dimension mismatch")
	}
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] += b.Data[i]
	}
	return out
}

// PackBand extracts the packed lower band storage (bandwidth bw) of a dense
// symmetric matrix, for tests and for building S = A·Aᵀ band factorisations
// from explicitly assembled small blocks.
func PackBand(a *Matrix, bw int) []float64 {
	n := a.Rows
	w := bw + 1
	p := make([]float64, n*w)
	for i := 0; i < n; i++ {
		for d := 0; d <= bw && d <= i; d++ {
			p[i*w+d] = a.At(i, i-d)
		}
	}
	return p
}

// Clone returns an independent operator sharing the immutable tables
// (spectra, plan, slots) but with private scratch, for use on another
// goroutine.
func (op *ToeplitzOp) Clone() *ToeplitzOp {
	cp := *op
	cp.grid = make([]complex128, len(op.grid))
	cp.prod = make([]complex128, len(op.prod))
	cp.row = make([]complex128, len(op.row))
	return &cp
}

// MulVec returns the matrix-vector product m·x, one row dot product per
// entry.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.Cols != len(x) {
		panic("mat: MulVec dimension mismatch")
	}
	out := make([]float64, m.Rows)
	for i := range out {
		out[i] = dot(m.Data[i*m.Cols:(i+1)*m.Cols], x)
	}
	return out
}

// MulVec returns T·x as a new vector.
func (op *ToeplitzOp) MulVec(x []float64) []float64 {
	dst := make([]float64, op.n)
	op.MulVecTo(dst, x)
	return dst
}
