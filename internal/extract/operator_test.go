package extract

import (
	"context"
	"errors"
	"math"
	"testing"

	"pdnsim/internal/bem"
	"pdnsim/internal/geom"
	"pdnsim/internal/greens"
	"pdnsim/internal/mesh"
	"pdnsim/internal/simerr"
)

// buildPlaneOp assembles a square plane with the given operator mode and a
// lossy sheet so all three reduced networks (Γ, C, G) are exercised.
func buildPlaneOp(t testing.TB, n int, mode bem.OperatorMode) *bem.Assembly {
	t.Helper()
	side := 20e-3
	m, err := mesh.Grid(geom.RectShape(0, 0, side, side), n, n)
	if err != nil {
		t.Fatal(err)
	}
	ports := []geom.Point{{X: 2e-3, Y: 2e-3}, {X: 17e-3, Y: 9e-3}, {X: 8e-3, Y: 16e-3}}
	for i, p := range ports {
		if _, err := m.AddPort([]string{"p1", "p2", "p3"}[i], p); err != nil {
			t.Fatal(err)
		}
	}
	k, err := greens.NewKernel(greens.OverGround, 0.4e-3, 4.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := bem.DefaultOptions()
	opts.Operator = mode
	opts.SheetResistance = 0.5e-3
	a, err := bem.Assemble(m, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func assertMatAgree(t *testing.T, what string, got, want []float64, tol float64) {
	t.Helper()
	var scale float64
	for _, w := range want {
		if a := math.Abs(w); a > scale {
			scale = a
		}
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol*scale {
			t.Fatalf("%s[%d] = %.12g, reference %.12g (scale %g, tol %g)", what, i, got[i], want[i], scale, tol)
		}
	}
}

// TestOperatorPathMatchesDensePath is the CG-vs-LU agreement contract: the
// forced operator path must reproduce the dense reduction's Γ, C and G
// within operatorAgreeRelTol, on a mesh small enough that the dense path is
// the auto-mode choice.
func TestOperatorPathMatchesDensePath(t *testing.T) {
	ao := buildPlaneOp(t, 12, bem.OpToeplitz)
	ad := buildPlaneOp(t, 12, bem.OpDense)
	opts := Options{ExtraNodes: 5}
	no, err := Extract(ao, opts)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := Extract(ad, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Forced mode must actually have taken the operator path: no fallback
	// warning in the diag trail.
	for _, item := range no.Diag.Items() {
		if item.Check == "operator path" {
			t.Fatalf("forced operator path fell back to dense: %s", item.Message)
		}
	}
	assertMatAgree(t, "Gamma", no.Gamma.Data, nd.Gamma.Data, operatorAgreeRelTol)
	assertMatAgree(t, "C", no.C.Data, nd.C.Data, operatorAgreeRelTol)
	if (no.G == nil) != (nd.G == nil) {
		t.Fatal("operator and dense paths disagree on losslessness")
	}
	if no.G != nil {
		assertMatAgree(t, "G", no.G.Data, nd.G.Data, operatorAgreeRelTol)
	}
	// Guyan reduction preserves total capacitance; both paths must agree on
	// the invariant too.
	tc, td := no.TotalCapacitance(), nd.TotalCapacitance()
	if math.Abs(tc-td) > operatorAgreeRelTol*math.Abs(td) {
		t.Fatalf("total capacitance: operator %g vs dense %g", tc, td)
	}
}

// TestOperatorPathImpedanceAgreement checks the contract where it matters:
// port impedances of the two extractions agree through resonance.
func TestOperatorPathImpedanceAgreement(t *testing.T) {
	no, err := Extract(buildPlaneOp(t, 10, bem.OpToeplitz), Options{ExtraNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := Extract(buildPlaneOp(t, 10, bem.OpDense), Options{ExtraNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{1e6, 100e6, 1e9} {
		omega := 2 * math.Pi * f
		zo, err := no.Zin(0, omega)
		if err != nil {
			t.Fatal(err)
		}
		zd, err := nd.Zin(0, omega)
		if err != nil {
			t.Fatal(err)
		}
		den := math.Hypot(real(zd), imag(zd))
		if math.Hypot(real(zo-zd), imag(zo-zd)) > 1e-4*den {
			t.Fatalf("Zin at %g Hz: operator %v vs dense %v", f, zo, zd)
		}
	}
}

func TestOperatorPathCancellation(t *testing.T) {
	a := buildPlaneOp(t, 10, bem.OpToeplitz)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExtractCtx(ctx, a, Options{}); !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("want ErrCancelled through the operator path, got %v", err)
	}
}

// TestOperatorPathRegularizePinsDense: diagonal loading perturbs operators
// the Toeplitz product cannot represent, so Regularize must use the dense
// path even when operators are present (visible via its diag record and the
// absence of an operator-path fallback warning).
func TestOperatorPathRegularizePinsDense(t *testing.T) {
	a := buildPlaneOp(t, 8, bem.OpToeplitz)
	n, err := Extract(a, Options{Regularize: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	sawReg := false
	for _, item := range n.Diag.Items() {
		if item.Check == "regularization" {
			sawReg = true
		}
		if item.Check == "operator path" {
			t.Fatalf("regularized extraction must not attempt the operator path: %s", item.Message)
		}
	}
	if !sawReg {
		t.Fatal("regularization diag record missing (dense path not taken?)")
	}
}

// TestProjectedCGSolvesConstrainedSystem exercises projectedCG directly on a
// small assembly: the minimiser must satisfy the constraint A_I·y = 0 and
// the unprojected residual must lie in range(A_Iᵀ).
func TestProjectedCGSolvesConstrainedSystem(t *testing.T) {
	a := buildPlaneOp(t, 6, bem.OpToeplitz)
	keep := []int{0, 17, 35}
	internal := make([]int, 0, len(a.Mesh.Cells)-len(keep))
	isKeep := map[int]bool{0: true, 17: true, 35: true}
	for i := range a.Mesh.Cells {
		if !isKeep[i] {
			internal = append(internal, i)
		}
	}
	lop := newLinkInductance(a)
	proj, err := newGridProjector(a.Mesh, internal)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, lop.Size())
	for i := range a.Mesh.Links {
		if a.Mesh.Links[i].From == keep[0] {
			b[i] = 1
		} else if a.Mesh.Links[i].To == keep[0] {
			b[i] = -1
		}
	}
	y, r, err := projectedCG(context.Background(), lop, proj, b, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Feasibility: A_I·y = 0.
	ai := make([]float64, len(internal))
	proj.mulAITo(ai, y)
	var ymax float64
	for _, v := range y {
		if a := math.Abs(v); a > ymax {
			ymax = a
		}
	}
	for p, v := range ai {
		if math.Abs(v) > 1e-9*(1+ymax) {
			t.Fatalf("constraint violated at internal %d: %g", p, v)
		}
	}
	// Optimality: the projected residual vanishes.
	pr := make([]float64, len(r))
	proj.projectTo(pr, r)
	var rnorm, prnorm float64
	for i := range r {
		rnorm += r[i] * r[i]
		prnorm += pr[i] * pr[i]
	}
	if rnorm > 0 && math.Sqrt(prnorm) > 1e-10*math.Sqrt(rnorm)+1e-30 {
		t.Fatalf("projected residual not vanished: %g vs %g", math.Sqrt(prnorm), math.Sqrt(rnorm))
	}
}
