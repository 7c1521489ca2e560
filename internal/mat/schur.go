package mat

import "pdnsim/internal/simerr"

// SchurReduce eliminates the "internal" index set from a square nodal matrix
// and returns the Schur complement on the "kept" index set:
//
//	S = A_kk − A_ki · A_ii⁻¹ · A_ik
//
// This is network-theoretic Kron reduction: for a nodal admittance (or
// inverse-inductance, or capacitance) matrix, eliminating unconnected
// internal nodes yields the exact reduced-port matrix at the kept nodes.
func SchurReduce(a *Matrix, keep, internal []int) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mat: SchurReduce requires a square matrix")
	}
	if len(keep)+len(internal) != a.Rows {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mat: SchurReduce index sets must partition the matrix")
	}
	seen := make([]bool, a.Rows)
	for _, i := range append(append([]int{}, keep...), internal...) {
		if i < 0 || i >= a.Rows || seen[i] {
			return nil, simerr.Tagf(simerr.ErrBadInput, "mat: SchurReduce index sets must be a disjoint cover")
		}
		seen[i] = true
	}
	akk := a.Submatrix(keep, keep)
	if len(internal) == 0 {
		return akk, nil
	}
	aki := a.Submatrix(keep, internal)
	aik := a.Submatrix(internal, keep)
	aii := a.Submatrix(internal, internal)

	x, err := SolveSPD(aii, aik)
	if err != nil {
		return nil, err
	}
	corr := aki.Mul(x)
	return akk.SubM(corr), nil
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
