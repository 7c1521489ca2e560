// Package cavity implements the analytic cavity-resonator model of a
// rectangular power/ground plane pair: the classic double-cosine modal
// series for the port impedance matrix,
//
//	Z_ij(ω) = jωμ0·d/(a·b) · Σ_m Σ_n  ε_m·ε_n·f_mn(x_i,y_i)·f_mn(x_j,y_j)
//	                                  ─────────────────────────────────────
//	                                        k_mn² − k²(1 − j·δ_eff)
//
// with f_mn(x,y) = cos(mπx/a)·cos(nπy/b), k_mn² = (mπ/a)² + (nπ/b)², and
// k = ω√(μ0ε0εr). The m = n = 0 term reduces to the plate capacitance
// 1/(jωC). This closed form is exact for a lossless rectangular cavity with
// magnetic side walls — the same physics the BEM/quasi-static extraction
// approximates — so it serves as the independent reference curve where the
// paper plots measured S-parameters (Fig. 7).
package cavity

import (
	"math"

	"pdnsim/internal/greens"
	"pdnsim/internal/mat"

	"pdnsim/internal/simerr"
)

// Model is a rectangular plane-pair cavity.
type Model struct {
	A, B    float64 // plane dimensions (m)
	D       float64 // plane separation (m)
	EpsR    float64
	LossTan float64 // effective loss tangent (dielectric + smeared conductor loss)
	Modes   int     // series truncation per axis (default 40)

	ports []port
}

type port struct {
	name string
	x, y float64
	w, h float64
}

// New validates and builds a cavity model.
func New(a, b, d, epsR float64) (*Model, error) {
	if a <= 0 || b <= 0 || d <= 0 || epsR < 1 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "cavity: invalid geometry a=%g b=%g d=%g epsR=%g", a, b, d, epsR)
	}
	return &Model{A: a, B: b, D: d, EpsR: epsR, LossTan: 1e-3, Modes: 40}, nil
}

// AddPort registers a port at (x, y) with a default footprint of 1/50 of
// the plane (a point port makes the modal self-term diverge
// logarithmically; real vias and probe pads have finite size).
func (m *Model) AddPort(name string, x, y float64) error {
	s := math.Min(m.A, m.B) / 50
	return m.AddPortSized(name, x, y, s, s)
}

// AddPortSized registers a port with an explicit w×h footprint, averaged
// over by the standard sinc factors.
func (m *Model) AddPortSized(name string, x, y, w, h float64) error {
	if x < 0 || x > m.A || y < 0 || y > m.B {
		return simerr.Tagf(simerr.ErrBadInput, "cavity: port %s at (%g,%g) outside the plane", name, x, y)
	}
	if w < 0 || h < 0 {
		return simerr.Tagf(simerr.ErrBadInput, "cavity: port %s has negative size", name)
	}
	m.ports = append(m.ports, port{name, x, y, w, h})
	return nil
}

// sincArgCut is the |x| below which sinc(x) is evaluated as its Taylor
// limit 1: the first neglected term is x²/6 ≈ 1e-25 at the cut, far below
// float64 round-off, while sin(x)/x itself is safe everywhere above it.
const sincArgCut = 1e-12

func sinc(x float64) float64 {
	if math.Abs(x) < sincArgCut {
		return 1
	}
	return math.Sin(x) / x
}

// Z returns the port impedance matrix at angular frequency omega.
func (m *Model) Z(omega float64) (*mat.CMatrix, error) {
	n := len(m.ports)
	if n == 0 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "cavity: no ports")
	}
	if omega <= 0 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "cavity: omega must be positive")
	}
	modes := m.Modes
	if modes <= 0 {
		modes = 40
	}
	k2 := complex(omega*omega*greens.Mu0*greens.Eps0*m.EpsR, 0) *
		complex(1, -m.LossTan)
	pref := complex(0, omega*greens.Mu0*m.D/(m.A*m.B))
	z := mat.CNew(n, n)
	// Precompute the cosine factors per port and mode index.
	cosX := make([][]float64, n)
	cosY := make([][]float64, n)
	for p, pt := range m.ports {
		cosX[p] = make([]float64, modes+1)
		cosY[p] = make([]float64, modes+1)
		for q := 0; q <= modes; q++ {
			kq := float64(q) * math.Pi
			cosX[p][q] = math.Cos(kq*pt.x/m.A) * sinc(kq*pt.w/(2*m.A))
			cosY[p][q] = math.Cos(kq*pt.y/m.B) * sinc(kq*pt.h/(2*m.B))
		}
	}
	for mi := 0; mi <= modes; mi++ {
		km := float64(mi) * math.Pi / m.A
		em := 1.0
		if mi > 0 {
			em = 2
		}
		for ni := 0; ni <= modes; ni++ {
			kn := float64(ni) * math.Pi / m.B
			en := 1.0
			if ni > 0 {
				en = 2
			}
			den := complex(km*km+kn*kn, 0) - k2
			coef := complex(em*en, 0) / den
			for i := 0; i < n; i++ {
				fi := cosX[i][mi] * cosY[i][ni]
				if fi == 0 {
					continue
				}
				for j := i; j < n; j++ {
					fj := cosX[j][mi] * cosY[j][ni]
					z.Add(i, j, coef*complex(fi*fj, 0))
				}
			}
		}
	}
	// Symmetrise (only the upper triangle was accumulated).
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := z.At(i, j) * pref
			z.Set(i, j, v)
			z.Set(j, i, v)
		}
	}
	return z, nil
}
