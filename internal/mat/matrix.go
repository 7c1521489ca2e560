// Package mat provides the dense linear algebra kernel used by every solver
// in pdnsim: real and complex matrices, LU and Cholesky factorisations, a
// Jacobi symmetric eigensolver, and Schur-complement reduction. It is
// deliberately small and allocation-conscious; matrices are row-major dense
// float64/complex128 slices. No external numeric dependencies are used.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major real matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[r*Cols+c]
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (r,c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r,c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Add accumulates v into element (r,c).
func (m *Matrix) Add(r, c int, v float64) { m.Data[r*m.Cols+c] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Data[c*m.Rows+r] = m.Data[r*m.Cols+c]
		}
	}
	return out
}

// Scale multiplies every entry by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// SubM returns m - b as a new matrix.
func (m *Matrix) SubM(b *Matrix) *Matrix {
	checkSame(m, b)
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] -= b.Data[i]
	}
	return out
}

func checkSame(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: dimension mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Mul returns the matrix product m·b, computed by the blocked parallel GEMM
// kernel (see block.go). Every a·b term is accumulated — there is no
// zero-skip — so 0·Inf and 0·NaN contributions propagate as NaN exactly as
// they do in MulVec, and a poisoned operand surfaces instead of being
// silently masked.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := New(m.Rows, b.Cols)
	gemmAcc(out.Data, b.Cols, m.Data, m.Cols, b.Data, b.Cols, m.Rows, b.Cols, m.Cols, false)
	return out
}

// Submatrix extracts the block with the given row and column index sets.
func (m *Matrix) Submatrix(rows, cols []int) *Matrix {
	out := New(len(rows), len(cols))
	for i, r := range rows {
		for j, c := range cols {
			out.Data[i*len(cols)+j] = m.Data[r*m.Cols+c]
		}
	}
	return out
}

// MaxAbs returns the largest absolute entry.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Norm1 returns the 1-norm (maximum absolute column sum).
func Norm1(m *Matrix) float64 {
	var mx float64
	for c := 0; c < m.Cols; c++ {
		var s float64
		for r := 0; r < m.Rows; r++ {
			s += math.Abs(m.Data[r*m.Cols+c])
		}
		if s > mx {
			mx = s
		}
	}
	return mx
}

// NormInf returns the ∞-norm (maximum absolute row sum).
func NormInf(m *Matrix) float64 {
	var mx float64
	for r := 0; r < m.Rows; r++ {
		var s float64
		for _, v := range m.Data[r*m.Cols : (r+1)*m.Cols] {
			s += math.Abs(v)
		}
		if s > mx {
			mx = s
		}
	}
	return mx
}

// Asymmetry returns the largest absolute difference |a_ij − a_ji| relative to
// the largest entry magnitude — 0 for an exactly symmetric matrix. It is the
// quantitative margin behind IsSymmetric.
func (m *Matrix) Asymmetry() float64 {
	if m.Rows != m.Cols {
		return math.Inf(1)
	}
	scale := m.MaxAbs()
	if scale == 0 {
		return 0
	}
	var worst float64
	for r := 0; r < m.Rows; r++ {
		for c := r + 1; c < m.Cols; c++ {
			if d := math.Abs(m.At(r, c) - m.At(c, r)); d > worst {
				worst = d
			}
		}
	}
	return worst / scale
}

// IsSymmetric reports whether m is symmetric to within tol (relative to the
// largest entry magnitude).
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	scale := m.MaxAbs()
	if scale == 0 {
		return true
	}
	for r := 0; r < m.Rows; r++ {
		for c := r + 1; c < m.Cols; c++ {
			if math.Abs(m.At(r, c)-m.At(c, r)) > tol*scale {
				return false
			}
		}
	}
	return true
}

// Symmetrize replaces m with (m + mᵀ)/2 in place.
func (m *Matrix) Symmetrize() {
	if m.Rows != m.Cols {
		panic("mat: Symmetrize requires a square matrix")
	}
	for r := 0; r < m.Rows; r++ {
		for c := r + 1; c < m.Cols; c++ {
			v := 0.5 * (m.At(r, c) + m.At(c, r))
			m.Set(r, c, v)
			m.Set(c, r, v)
		}
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			fmt.Fprintf(&b, "% .6g ", m.At(r, c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Complement returns the indices in [0,n) that are not in the given set.
func Complement(n int, set []int) []int {
	in := make([]bool, n)
	for _, i := range set {
		if i >= 0 && i < n {
			in[i] = true
		}
	}
	out := make([]int, 0, n-len(set))
	for i := 0; i < n; i++ {
		if !in[i] {
			out = append(out, i)
		}
	}
	return out
}
