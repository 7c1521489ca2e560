package extract

import (
	"fmt"
	"math"
	"testing"

	"pdnsim/internal/bem"
	"pdnsim/internal/geom"
	"pdnsim/internal/greens"
	"pdnsim/internal/mat"
	"pdnsim/internal/mesh"
)

// reductionAgreeRelTol bounds the disagreement, relative to each reduced
// matrix's largest entry, between the dense reduction and the historical
// explicit-inverse formulation kept below. Both are exact in exact
// arithmetic; in floating point they differ by the conditioning of the
// L, P and Γ_ii solves times roundoff, which stays orders of magnitude
// under this bound on the fixture meshes.
const reductionAgreeRelTol = 1e-9

// legacyDenseReduce is the historical dense reduction, kept as the
// reference for denseReduce: Γ = A·L⁻¹·Aᵀ from an explicit L⁻¹, C as the
// explicit inverse P⁻¹, Γ Kron-reduced by its own SchurReduce, and the
// Guyan congruence factoring Γ_ii a second time.
func legacyDenseReduce(t *testing.T, a *bem.Assembly, reg float64, keep, internal []int) (gammaRed, cRed, gRed *mat.Matrix) {
	t.Helper()
	inc := a.Mesh.Incidence()
	linv, err := mat.InverseSPD(a.L)
	if err != nil {
		t.Fatal(err)
	}
	gamma := inc.Mul(linv).Mul(inc.T())
	gamma.Symmetrize()
	c, err := mat.InverseSPD(a.P)
	if err != nil {
		t.Fatal(err)
	}
	c.Symmetrize()
	if reg > 0 {
		loadDiagonal(gamma, reg)
		loadDiagonal(c, reg)
	}
	if gammaRed, err = mat.SchurReduce(gamma, keep, internal); err != nil {
		t.Fatal(err)
	}
	if cRed, err = legacyGuyanReduce(c, gamma, keep, internal); err != nil {
		t.Fatal(err)
	}
	if g := a.ConductanceLaplacian(); g != nil {
		if gRed, err = mat.SchurReduce(g, keep, internal); err != nil {
			t.Fatal(err)
		}
	}
	return gammaRed, cRed, gRed
}

// legacyGuyanReduce computes Wᵀ·C·W with W = [I; −Γ_ii⁻¹·Γ_ik] (kept nodes
// first) from the explicit C, factoring Γ_ii on its own.
func legacyGuyanReduce(c, gamma *mat.Matrix, keep, internal []int) (*mat.Matrix, error) {
	ckk := c.Submatrix(keep, keep)
	if len(internal) == 0 {
		return ckk, nil
	}
	x, err := mat.SolveSPD(gamma.Submatrix(internal, internal), gamma.Submatrix(internal, keep))
	if err != nil {
		return nil, err
	}
	cki := c.Submatrix(keep, internal)
	cii := c.Submatrix(internal, internal)
	// C_red = C_kk − C_ki·x − xᵀ·C_ik + xᵀ·C_ii·x  (C_ik = C_kiᵀ).
	red := ckk.SubM(cki.Mul(x))
	red = red.SubM(x.T().Mul(cki.T()))
	red = red.AddM(x.T().Mul(cii).Mul(x))
	red.Symmetrize()
	return red, nil
}

// assembleShape meshes sh on an nx×ny grid, places three ports and
// assembles a lossy dense system, so Γ, C and G are all reduced.
func assembleShape(t *testing.T, sh geom.Shape, nx, ny int, ports []geom.Point) *bem.Assembly {
	t.Helper()
	m, err := mesh.Grid(sh, nx, ny)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ports {
		if _, err := m.AddPort(fmt.Sprintf("p%d", i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	k, err := greens.NewKernel(greens.OverGround, 0.4e-3, 4.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := bem.DefaultOptions()
	opts.Operator = bem.OpDense
	opts.SheetResistance = 0.5e-3
	a, err := bem.Assemble(m, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestDenseReduceMatchesLegacyFormulation pins the dense reduction (Γ as a
// Gram product, one Γ_ii factor shared by the Kron and Guyan reductions,
// C_red from a k-column P solve) to the historical explicit-inverse
// formulation on rectangular, L-shaped and holed boards, with and without
// diagonal loading.
func TestDenseReduceMatchesLegacyFormulation(t *testing.T) {
	holed := geom.RectShape(0, 0, 20e-3, 16e-3)
	holed.Holes = []geom.Polygon{{
		{X: 7e-3, Y: 5e-3}, {X: 13e-3, Y: 5e-3}, {X: 13e-3, Y: 11e-3}, {X: 7e-3, Y: 11e-3},
	}}
	boards := []struct {
		name   string
		sh     geom.Shape
		nx, ny int
		ports  []geom.Point
	}{
		{"rect", geom.RectShape(0, 0, 20e-3, 20e-3), 11, 11,
			[]geom.Point{{X: 2e-3, Y: 2e-3}, {X: 17e-3, Y: 9e-3}, {X: 8e-3, Y: 16e-3}}},
		{"lshape", geom.LShape(20e-3, 20e-3, 9e-3, 9e-3), 12, 12,
			[]geom.Point{{X: 2e-3, Y: 2e-3}, {X: 18e-3, Y: 3e-3}, {X: 3e-3, Y: 18e-3}}},
		{"holed", holed, 14, 11,
			[]geom.Point{{X: 2e-3, Y: 2e-3}, {X: 18e-3, Y: 14e-3}, {X: 10e-3, Y: 2e-3}}},
	}
	for _, bd := range boards {
		a := assembleShape(t, bd.sh, bd.nx, bd.ny, bd.ports)
		for _, reg := range []float64{0, 1e-7} {
			t.Run(fmt.Sprintf("%s/reg=%g", bd.name, reg), func(t *testing.T) {
				opts := Options{ExtraNodes: 5, Regularize: reg}
				nw, err := Extract(a, opts)
				if err != nil {
					t.Fatal(err)
				}
				internal := mat.Complement(len(a.Mesh.Cells), nw.NodeCells)
				gamma, c, g := legacyDenseReduce(t, a, reg, nw.NodeCells, internal)
				assertMatAgree(t, "Γ_red", nw.Gamma.Data, gamma.Data, reductionAgreeRelTol)
				assertMatAgree(t, "C_red", nw.C.Data, c.Data, reductionAgreeRelTol)
				if g == nil || nw.G == nil {
					t.Fatal("lossy board must reduce G")
				}
				assertMatAgree(t, "G_red", nw.G.Data, g.Data, reductionAgreeRelTol)

				var want float64
				for _, v := range c.Data {
					want += v
				}
				if got := nw.TotalCapacitance(); math.Abs(got-want) > 1e-12*math.Abs(want) {
					t.Fatalf("total capacitance %.15g, legacy %.15g", got, want)
				}

				loaded := false
				for _, item := range nw.Diag.Items() {
					if item.Check == "regularization" {
						loaded = true
					}
				}
				if loaded != (reg > 0) {
					t.Fatalf("regularization recorded = %v with Regularize = %g:\n%s", loaded, reg, nw.Diag.Render(true))
				}
			})
		}
	}
}
