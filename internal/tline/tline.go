// Package tline implements the signal-net subsystem of the paper's §5.2:
// a fast 2-D method-of-moments field solver that extracts the per-unit-length
// inductance and capacitance matrices of multiconductor microstrip lines,
// and the modal analysis that turns them into independent propagating modes
// for time-domain simulation (crosstalk included).
//
// The cross-section solver places thin conductor strips at the interface of
// a grounded dielectric slab and solves for the charge distribution with
// pulse basis functions and point matching. The 2-D static Green's function
// of a line charge on a grounded slab uses the same image series as the 3-D
// kernel in package greens (the layered-media transmission-line derivation
// is identical; only the radial kernel changes from 1/r to −ln ρ):
//
//	G(ρ) = −1/(2πε̄)·[ ln ρ − (1+K)·Σ_{n≥1} (−K)^{n−1} ln √(ρ²+(2nh)²) ]
//
// with ε̄ = ε0(εr+1)/2 and K = (εr−1)/(εr+1). The inductance matrix comes
// from the air-filled capacitance: L = μ0ε0·C0⁻¹.
package tline

import (
	"fmt"
	"math"

	"pdnsim/internal/circuit"
	"pdnsim/internal/diag"
	"pdnsim/internal/greens"
	"pdnsim/internal/mat"
	"pdnsim/internal/simerr"
)

// Strip is one conductor of the cross-section: a zero-thickness horizontal
// strip of width W centred at X, sitting on the dielectric surface.
type Strip struct {
	X, W float64
}

// Geometry describes a multiconductor microstrip cross-section.
type Geometry struct {
	Strips       []Strip
	H            float64 // substrate thickness (m)
	EpsR         float64 // substrate relative permittivity
	NImages      int     // image series truncation (default 40)
	SegsPerStrip int     // MoM segments per strip (default 40)
}

// Params holds the extracted per-unit-length matrices.
type Params struct {
	N  int
	L  *mat.Matrix // H/m
	C  *mat.Matrix // F/m (with dielectric)
	C0 *mat.Matrix // F/m (air-filled)

	// Diag records the physics-invariant checks run on the extracted
	// matrices: L and C must each be symmetric positive definite for the
	// modal decomposition (and any passive realisation) to exist.
	Diag *diag.Diagnostics
}

// Solve extracts the per-unit-length parameters of the cross-section.
func Solve(g Geometry) (p *Params, err error) {
	defer simerr.RecoverInto(&err, "tline: solve")
	if len(g.Strips) == 0 {
		return nil, simerr.BadInput("tline: solve", "no strips")
	}
	if !(g.H > 0) || !(g.EpsR >= 1) || math.IsInf(g.H, 0) || math.IsInf(g.EpsR, 0) {
		return nil, simerr.BadInput("tline: solve", "invalid substrate h=%g epsR=%g", g.H, g.EpsR)
	}
	for i, s := range g.Strips {
		if !(s.W > 0) || math.IsInf(s.W, 0) || math.IsNaN(s.X) || math.IsInf(s.X, 0) {
			return nil, simerr.BadInput("tline: solve", "strip %d has invalid geometry x=%g w=%g", i, s.X, s.W)
		}
		for j := i + 1; j < len(g.Strips); j++ {
			o := g.Strips[j]
			if math.Abs(s.X-o.X) < (s.W+o.W)/2 {
				return nil, simerr.BadInput("tline: solve", "strips %d and %d overlap", i, j)
			}
		}
	}
	if g.NImages <= 0 {
		g.NImages = 40
	}
	if g.SegsPerStrip <= 0 {
		g.SegsPerStrip = 40
	}
	c, err := capacitanceMatrix(g, g.EpsR)
	if err != nil {
		return nil, err
	}
	c0, err := capacitanceMatrix(g, 1)
	if err != nil {
		return nil, err
	}
	l, err := mat.InverseSPD(c0)
	if err != nil {
		return nil, fmt.Errorf("tline: inverting air capacitance: %w", err)
	}
	l.Scale(greens.Mu0 * greens.Eps0)
	l.Symmetrize()
	p = &Params{N: len(g.Strips), L: l, C: c, C0: c0, Diag: diag.New()}
	// The per-unit-length matrices of a passive line are symmetric positive
	// definite; anything else means the MoM discretisation broke down
	// (degenerate strips, truncated image series). Tiny violations are
	// repaired and recorded, gross ones abort with ErrIllConditioned.
	for _, chk := range []struct {
		name string
		m    *mat.Matrix
	}{{"L matrix", l}, {"C matrix", c}, {"C0 matrix", c0}} {
		if err := diag.CheckSymmetric(p.Diag, "tline", chk.name, chk.m); err != nil {
			return nil, err
		}
		if err := diag.CheckPSD(p.Diag, "tline", chk.name, chk.m); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// segment is one pulse basis function.
type segment struct {
	cond   int
	x0, x1 float64
}

// capacitanceMatrix computes the N×N Maxwell capacitance per unit length for
// the cross-section with substrate permittivity epsR.
func capacitanceMatrix(g Geometry, epsR float64) (*mat.Matrix, error) {
	var segs []segment
	for ci, s := range g.Strips {
		x0 := s.X - s.W/2
		dw := s.W / float64(g.SegsPerStrip)
		for k := 0; k < g.SegsPerStrip; k++ {
			segs = append(segs, segment{cond: ci, x0: x0 + float64(k)*dw, x1: x0 + float64(k+1)*dw})
		}
	}
	n := len(segs)
	p := mat.New(n, n)
	pref, terms := lnSeries(g.H, epsR, g.NImages)
	for i := 0; i < n; i++ {
		xi := (segs[i].x0 + segs[i].x1) / 2
		for j := 0; j < n; j++ {
			w := segs[j].x1 - segs[j].x0
			var v float64
			for _, t := range terms {
				v += t.c * lnSegmentIntegral(segs[j].x0-xi, segs[j].x1-xi, t.z)
			}
			// Potential at i due to unit total charge per unit length on j.
			p.Set(i, j, -pref*v/w)
		}
	}
	p.Symmetrize()
	// Solve P·Q = V for the unit-voltage indicator patterns and sum the
	// segment charges per conductor.
	lu, err := mat.NewLU(p)
	if err != nil {
		return nil, fmt.Errorf("tline: potential matrix singular: %w", err)
	}
	nc := len(g.Strips)
	cmat := mat.New(nc, nc)
	rhs := make([]float64, n)
	for cj := 0; cj < nc; cj++ {
		for i := range rhs {
			rhs[i] = 0
			if segs[i].cond == cj {
				rhs[i] = 1
			}
		}
		q, err := lu.Solve(rhs)
		if err != nil {
			return nil, err
		}
		for i, s := range segs {
			cmat.Add(s.cond, cj, q[i])
		}
	}
	cmat.Symmetrize()
	return cmat, nil
}

type lnTerm struct {
	c float64
	z float64
}

// lnImageCoefTol truncates the 2-D image series once the reflection
// coefficient product |(-kc)^n·(1+kc)| drops below it: the neglected tail
// is geometric, bounded by lnImageCoefTol/(1−kc), comfortably under the
// per-unit-length parameter accuracy (~1e-12) of the closed-form segment
// integrals that consume the series.
const lnImageCoefTol = 1e-15

// lnSeries returns the prefactor and image expansion of the 2-D scalar
// kernel G(ρ) = pref · Σ c_i · (−ln √(ρ² + z_i²)).
func lnSeries(h, epsR float64, nImages int) (float64, []lnTerm) {
	kc := (epsR - 1) / (epsR + 1)
	ebar := greens.Eps0 * (epsR + 1) / 2
	terms := []lnTerm{{1, 0}}
	coef := -(1 + kc)
	for n := 1; n <= nImages; n++ {
		terms = append(terms, lnTerm{coef, 2 * float64(n) * h})
		coef *= -kc
		if math.Abs(coef) < lnImageCoefTol {
			break
		}
	}
	return 1 / (2 * math.Pi * ebar), terms
}

// lnSegmentIntegral returns ∫_{a}^{b} ln √(u² + z²) du in closed form.
func lnSegmentIntegral(a, b, z float64) float64 {
	f := func(u float64) float64 {
		r2 := u*u + z*z
		var s float64
		if r2 > 0 {
			s = u/2*math.Log(r2) - u
		}
		if z != 0 {
			s += z * math.Atan(u/z)
		}
		return s
	}
	return f(b) - f(a)
}

// Modal holds the diagonalised line description used by circuit.MTL.
type Modal struct {
	N         int
	TV, TVInv [][]float64 // terminal↔modal voltage transforms
	TI        [][]float64 // modal→terminal current transform
	Z         []float64   // modal characteristic impedances (in transform units)
	Vel       []float64   // modal velocities (m/s)
}

// Modal diagonalises L·C through the congruence transform (package mat's
// generalized symmetric-definite eigensolver): C·x = λ·L⁻¹·x gives the
// eigenvectors of L·C with λ_k = 1/v_k². With the normalisation XᵀL⁻¹X = I
// the modal inductance is the identity and the modal capacitance is Λ, so
// Z_k = 1/√λ_k and the physical transforms are TV = X, TVInv = XᵀL⁻¹,
// TI = L⁻¹X.
func (p *Params) Modal() (*Modal, error) {
	linv, err := mat.InverseSPD(p.L)
	if err != nil {
		return nil, fmt.Errorf("tline: inverting L: %w", err)
	}
	linv.Symmetrize()
	vals, x, err := mat.GeneralizedSymEigen(p.C, linv)
	if err != nil {
		return nil, fmt.Errorf("tline: modal eigenproblem: %w", err)
	}
	n := p.N
	m := &Modal{N: n}
	m.TV = toRows(x)
	m.TVInv = toRows(x.T().Mul(linv))
	m.TI = toRows(linv.Mul(x))
	m.Z = make([]float64, n)
	m.Vel = make([]float64, n)
	for k := 0; k < n; k++ {
		if vals[k] <= 0 {
			return nil, simerr.Tagf(simerr.ErrIllConditioned, "tline: non-positive modal eigenvalue %g", vals[k])
		}
		m.Z[k] = 1 / math.Sqrt(vals[k])
		m.Vel[k] = 1 / math.Sqrt(vals[k])
	}
	return m, nil
}

func toRows(a *mat.Matrix) [][]float64 {
	out := make([][]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		out[i] = make([]float64, a.Cols)
		for j := 0; j < a.Cols; j++ {
			out[i][j] = a.At(i, j)
		}
	}
	return out
}

// EpsEff returns the effective permittivity C/C0 of conductor i's
// self-capacitance.
func (p *Params) EpsEff(i int) float64 {
	return p.C.At(i, i) / p.C0.At(i, i)
}

// EvenOddImpedances returns the even- and odd-mode impedances of a
// symmetric two-conductor pair.
func (p *Params) EvenOddImpedances() (zeven, zodd float64, err error) {
	if p.N != 2 {
		return 0, 0, simerr.Tagf(simerr.ErrBadInput, "tline: even/odd modes require two conductors")
	}
	le, ce := p.L.At(0, 0)+p.L.At(0, 1), p.C.At(0, 0)+p.C.At(0, 1)
	lo, co := p.L.At(0, 0)-p.L.At(0, 1), p.C.At(0, 0)-p.C.At(0, 1)
	if ce <= 0 || co <= 0 || le <= 0 || lo <= 0 {
		return 0, 0, simerr.Tagf(simerr.ErrIllConditioned, "tline: degenerate even/odd parameters")
	}
	return math.Sqrt(le / ce), math.Sqrt(lo / co), nil
}

// Attach expands the line into a circuit.MTL of the given physical length
// between the end1 and end2 terminal nodes (both referenced to ref nodes).
func (p *Params) Attach(c *circuit.Circuit, name string, end1 []int, ref1 int,
	end2 []int, ref2 int, length float64) (*circuit.MTL, error) {
	if length <= 0 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "tline: length must be positive")
	}
	if len(end1) != p.N || len(end2) != p.N {
		return nil, simerr.Tagf(simerr.ErrBadInput, "tline: need %d terminals per end", p.N)
	}
	m, err := p.Modal()
	if err != nil {
		return nil, err
	}
	td := make([]float64, p.N)
	for k := 0; k < p.N; k++ {
		td[k] = length / m.Vel[k]
	}
	return c.AddMTLModal(name, end1, ref1, end2, ref2, m.TV, m.TVInv, m.TI, m.Z, td)
}
