package extract

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"pdnsim/internal/bem"
	"pdnsim/internal/diag"
	"pdnsim/internal/geom"
	"pdnsim/internal/greens"
	"pdnsim/internal/mat"
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
	a, err := bem.AssembleCtx(context.Background(), m, k, opts)
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
	no, err := ExtractCtx(context.Background(), ao, opts)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := ExtractCtx(context.Background(), ad, opts)
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
	no, err := ExtractCtx(context.Background(), buildPlaneOp(t, 10, bem.OpToeplitz), Options{ExtraNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := ExtractCtx(context.Background(), buildPlaneOp(t, 10, bem.OpDense), Options{ExtraNodes: 4})
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
	n, err := ExtractCtx(context.Background(), a, Options{Regularize: 1e-9})
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

// TestOperatorPathLeavesDenseMatricesUnbuilt: an operator-path extraction
// of a 32×32 board allocates less than one dense L would take (links²·8
// bytes), and leaves the dense P and L unbuilt, so asking for them
// afterwards allocates each in full.
func TestOperatorPathLeavesDenseMatricesUnbuilt(t *testing.T) {
	a := buildPlaneOp(t, 32, bem.OpAuto)
	cells, links := len(a.Mesh.Cells), len(a.Mesh.Links)
	denseP, denseL := uint64(cells*cells*8), uint64(links*links*8)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var n *Network
	var err error
	got := allocated(func() { n, err = ExtractCtx(context.Background(), a, Options{ExtraNodes: 5}) })
	if err != nil {
		t.Fatal(err)
	}
	operator := false
	for _, item := range n.Diag.Items() {
		operator = operator || item.Check == "operator iterations"
		if item.Check == "operator path" {
			t.Fatalf("operator path fell back: %s", item.Message)
		}
	}
	if !operator {
		t.Fatal("a 1024-cell board under auto must take the operator path")
	}
	if got >= denseL {
		t.Fatalf("operator-path extraction allocated %d bytes, at least one dense L (%d)", got, denseL)
	}
	if p := allocated(func() { a.P() }); p < denseP {
		t.Fatalf("P() allocated %d bytes, less than a dense P (%d): the extraction had built it", p, denseP)
	}
	if l := allocated(func() { a.L() }); l < denseL {
		t.Fatalf("L() allocated %d bytes, less than a dense L (%d): the extraction had built it", l, denseL)
	}
}

// TestRegularizedExtractionIdenticalAcrossModes: Regularize pins the dense
// path, which reads the on-demand P and L. Assemblies of one board under
// auto, toeplitz (both carry operators) and dense must therefore reduce to
// bitwise equal networks.
func TestRegularizedExtractionIdenticalAcrossModes(t *testing.T) {
	opts := Options{ExtraNodes: 4, Regularize: 1e-9}
	modes := []bem.OperatorMode{bem.OpDense, bem.OpAuto, bem.OpToeplitz}
	var want *Network
	for _, mode := range modes {
		n, err := ExtractCtx(context.Background(), buildPlaneOp(t, 10, mode), opts)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = n
			continue
		}
		for _, m := range []struct {
			what      string
			got, want *mat.Matrix
		}{{"Γ", n.Gamma, want.Gamma}, {"C", n.C, want.C}, {"G", n.G, want.G}} {
			for i := range m.want.Data {
				if m.got.Data[i] != m.want.Data[i] {
					t.Fatalf("%v: regularised %s differs from the dense assembly's at flat index %d: %g vs %g",
						mode, m.what, i, m.got.Data[i], m.want.Data[i])
				}
			}
		}
	}
}

// TestOperatorIterationsRecorded: a forced operator-path extraction reports
// its CG iteration counts as one Info entry; the dense path has none to
// report.
func TestOperatorIterationsRecorded(t *testing.T) {
	opts := Options{ExtraNodes: 5}
	for _, c := range []struct {
		mode bem.OperatorMode
		want bool
	}{{bem.OpToeplitz, true}, {bem.OpDense, false}} {
		a := buildPlaneOp(t, 12, c.mode)
		n, err := ExtractCtx(context.Background(), a, opts)
		if err != nil {
			t.Fatal(err)
		}
		var found []diag.Diagnostic
		for _, item := range n.Diag.Items() {
			if item.Check == "operator iterations" {
				found = append(found, item)
			}
		}
		if !c.want {
			if len(found) != 0 {
				t.Fatalf("%v: dense path recorded %s", c.mode, found[0])
			}
			continue
		}
		if len(found) != 1 {
			t.Fatalf("%v: %d \"operator iterations\" entries, want 1", c.mode, len(found))
		}
		it := found[0]
		// Every kept node needs at least one projected-CG and one
		// capacitance-CG iteration.
		if it.Severity != diag.Info || it.Value < float64(2*len(n.NodeCells)) {
			t.Fatalf("%v: implausible entry %s (value %g, %d kept nodes)", c.mode, it, it.Value, len(n.NodeCells))
		}
		if !strings.Contains(it.Message, "projected CG") || !strings.Contains(it.Message, "capacitance CG") ||
			!strings.Contains(it.Message, "γ-scale CG") {
			t.Fatalf("%v: entry misses a stage: %s", c.mode, it.Message)
		}
		// The padded FFT grid of every operator, which sets the cost of
		// each apply: a 12×12 grid pads to 24×24 (the smallest even 2ᵃ·3ᵇ ≥
		// 2·12−1) for P and for both L blocks.
		grids := []string{"P 24×24", "Lx 24×24", "Ly 24×24"}
		for i, op := range []*mat.ToeplitzOp{a.POp, a.LOps[mesh.DirX], a.LOps[mesh.DirY]} {
			px, py := op.PaddedDims()
			if want := fmt.Sprintf("%s %d×%d", grids[i][:strings.IndexByte(grids[i], ' ')], px, py); want != grids[i] {
				t.Fatalf("%v: operator %d pads to %d×%d, want %s", c.mode, i, px, py, grids[i])
			}
			if !strings.Contains(it.Message, grids[i]) {
				t.Fatalf("%v: entry misses the padded FFT grid %q: %s", c.mode, grids[i], it.Message)
			}
		}
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
	y, r, _, err := projectedCG(context.Background(), lop, proj, b, 1e-12, 0)
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

// TestReduceConductanceStrip pins the banded G reduction to circuit
// theory on a 1-cell-wide strip, a chain of equal link resistors R: keeping
// the two end cells leaves one branch of the series resistance 9R, and
// keeping every cell leaves the chain's own Laplacian.
func TestReduceConductanceStrip(t *testing.T) {
	m, err := mesh.Grid(geom.RectShape(0, 0, 10e-3, 1e-3), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	k, err := greens.NewKernel(greens.OverGround, 0.3e-3, 4.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := bem.DefaultOptions()
	opts.SheetResistance = 1e-3 // each link is one square: R = 1 mΩ
	a, err := bem.AssembleCtx(context.Background(), m, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := reduceConductance(a, []int{0, 9}, mat.Complement(10, []int{0, 9}))
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (9 * 1e-3)
	for _, e := range []struct {
		i, j int
		v    float64
	}{{0, 0, want}, {1, 1, want}, {0, 1, -want}, {1, 0, -want}} {
		if got := g.At(e.i, e.j); math.Abs(got-e.v) > 1e-12*want {
			t.Fatalf("G_red[%d][%d] = %.15g, want %.15g", e.i, e.j, got, e.v)
		}
	}

	all := mat.Complement(10, nil)
	g, err = reduceConductance(a, all, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			var v float64
			switch {
			case i == j && (i == 0 || i == 9):
				v = 1e3
			case i == j:
				v = 2e3
			case i-j == 1 || j-i == 1:
				v = -1e3
			}
			if got := g.At(i, j); math.Abs(got-v) > 1e-9 {
				t.Fatalf("unreduced G[%d][%d] = %g, want %g", i, j, got, v)
			}
		}
	}
}
