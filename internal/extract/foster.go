package extract

import (
	"fmt"
	"math"

	"pdnsim/internal/mat"

	"pdnsim/internal/simerr"
)

// Foster synthesis: the lossless equivalent circuit's driving-point
// impedance has the exact partial-fraction form of Foster's reactance
// theorem. With the congruence eigenvectors of Γ·X = C·X·Λ normalised so
// XᵀCX = I, the nodal system (Γ/s + sC)·V = I diagonalises and the
// impedance at node p under unit injection is
//
//	Z_p(s) = Σ_k  X_pk² · s / (s² + ω_k²),   ω_k² = λ_k.
//
// Every term is a parallel L-C tank (C_k = 1/X_pk², L_k = X_pk²/ω_k²) in a
// series chain; the ω = 0 mode degenerates to the series capacitor that
// carries the plane's total charging behaviour. Truncating the chain at a
// maximum frequency is exact model-order reduction: the discarded tanks are
// absorbed into one residual inductance (their low-frequency limit
// Σ X_pk²/ω_k²·s).
type Foster struct {
	Port int
	// C0 is the series capacitor of the zero-frequency mode (F).
	C0 float64
	// Tanks are the resonant sections, ascending in frequency.
	Tanks []FosterTank
	// Lres absorbs truncated high-frequency tanks (H); 0 when untruncated.
	Lres float64
}

// FosterTank is one parallel L-C section of the chain.
type FosterTank struct {
	FHz  float64 // resonant frequency ω_k/2π
	L, C float64
}

// FosterModel synthesises the exact Foster chain of the driving-point
// impedance at the given port. fmax > 0 truncates: tanks above fmax are
// folded into the residual series inductance. Loss (G, skin, tanδ) is not
// represented — the synthesis is for the lossless reactance network.
func (n *Network) FosterModel(port int, fmax float64) (*Foster, error) {
	if port < 0 || port >= n.NumPorts {
		return nil, simerr.Tagf(simerr.ErrBadInput, "extract: port %d out of range [0,%d)", port, n.NumPorts)
	}
	vals, vecs, err := mat.GeneralizedSymEigen(n.Gamma, n.C)
	if err != nil {
		return nil, fmt.Errorf("extract: Foster eigenproblem: %w", err)
	}
	f := &Foster{Port: port}
	var scale float64
	for _, v := range vals {
		if v > scale {
			scale = v
		}
	}
	for k, lam := range vals {
		a := vecs.At(port, k) * vecs.At(port, k) // residue X_pk²
		if a <= 0 {
			continue // node not coupled to this mode
		}
		if lam <= zeroModeRelTol*scale {
			// Zero mode: 1/(s·C0) with C0 = 1/ΣA over all zero modes (a
			// connected plane has exactly one).
			f.C0 += a // accumulate residues; invert below
			continue
		}
		fk := math.Sqrt(lam) / (2 * math.Pi)
		if fmax > 0 && fk > fmax {
			// Low-frequency limit of the discarded tank: series L = A/ω².
			f.Lres += a / lam
			continue
		}
		f.Tanks = append(f.Tanks, FosterTank{FHz: fk, L: a / lam, C: 1 / a})
	}
	if f.C0 <= 0 {
		return nil, simerr.Tagf(simerr.ErrSingular, "extract: no zero mode found (disconnected network?)")
	}
	f.C0 = 1 / f.C0
	return f, nil
}

// Eval returns the Foster impedance at angular frequency omega.
func (f *Foster) Eval(omega float64) complex128 {
	s := complex(0, omega)
	z := 1 / (s * complex(f.C0, 0))
	z += s * complex(f.Lres, 0)
	for _, t := range f.Tanks {
		w2 := (2 * math.Pi * t.FHz) * (2 * math.Pi * t.FHz)
		// s·A/(s²+ω²) with A = 1/C.
		z += s * complex(1/t.C, 0) / (s*s + complex(w2, 0))
	}
	return z
}

// Order returns the number of reactive elements in the chain.
func (f *Foster) Order() int {
	n := 1 + 2*len(f.Tanks)
	if f.Lres > 0 {
		n++
	}
	return n
}
