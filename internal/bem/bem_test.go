package bem

import (
	"math"
	"testing"

	"pdnsim/internal/geom"
	"pdnsim/internal/greens"
	"pdnsim/internal/mat"
	"pdnsim/internal/mesh"
)

func mustMesh(t testing.TB, s geom.Shape, nx, ny int) *mesh.Mesh {
	t.Helper()
	m, err := mesh.Grid(s, nx, ny)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustKernel(t testing.TB, mode greens.KernelMode, h, epsR float64, n int) *greens.Kernel {
	t.Helper()
	k, err := greens.NewKernel(mode, h, epsR, n)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestAssembleValidation(t *testing.T) {
	m := mustMesh(t, geom.RectShape(0, 0, 1e-3, 1e-3), 2, 2)
	k := mustKernel(t, greens.FreeSpace, 0, 1, 1)
	if _, err := Assemble(nil, k, DefaultOptions()); err == nil {
		t.Fatal("nil mesh must error")
	}
	if _, err := Assemble(m, nil, DefaultOptions()); err == nil {
		t.Fatal("nil kernel must error")
	}
	bad := DefaultOptions()
	bad.SheetResistance = -1
	if _, err := Assemble(m, k, bad); err == nil {
		t.Fatal("negative sheet resistance must error")
	}
	bad2 := DefaultOptions()
	bad2.GaussOrder = 9
	if _, err := Assemble(m, k, bad2); err == nil {
		t.Fatal("unsupported Gauss order must error")
	}
}

func TestTestingSchemeString(t *testing.T) {
	if Collocation.String() != "collocation" || Galerkin.String() != "galerkin" {
		t.Fatal("TestingScheme labels")
	}
}

func TestPotentialMatrixProperties(t *testing.T) {
	m := mustMesh(t, geom.RectShape(0, 0, 10e-3, 10e-3), 6, 6)
	k := mustKernel(t, greens.OverGround, 0.5e-3, 4.5, 1)
	a, err := Assemble(m, k, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := a.P
	if !p.IsSymmetric(1e-12) {
		t.Fatal("P must be symmetric after assembly")
	}
	for i := 0; i < p.Rows; i++ {
		if p.At(i, i) <= 0 {
			t.Fatalf("P[%d][%d] = %g must be positive", i, i, p.At(i, i))
		}
		for j := 0; j < p.Cols; j++ {
			if i != j && p.At(i, j) >= p.At(i, i) {
				t.Fatalf("diagonal dominance violated at (%d,%d)", i, j)
			}
			if p.At(i, j) < 0 {
				t.Fatalf("P[%d][%d] = %g must be non-negative over a ground plane", i, j, p.At(i, j))
			}
		}
	}
	if _, err := mat.NewCholesky(p); err != nil {
		t.Fatalf("P must be positive definite: %v", err)
	}
}

// The total plane capacitance must converge to the parallel-plate value
// ε0·εr·A/h when the plane is large compared to the dielectric thickness.
func TestTotalCapacitanceParallelPlate(t *testing.T) {
	side := 50e-3
	h := 0.5e-3
	epsR := 4.2
	m := mustMesh(t, geom.RectShape(0, 0, side, side), 10, 10)
	k := mustKernel(t, greens.OverGround, h, epsR, 1)
	a, err := Assemble(m, k, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.TotalCapacitance()
	if err != nil {
		t.Fatal(err)
	}
	want := greens.Eps0 * epsR * side * side / h
	if e := math.Abs(got-want) / want; e > 0.05 {
		t.Fatalf("plate capacitance: got %.4g want %.4g (err %.3f)", got, want, e)
	}
	// The BEM value must exceed the ideal plate value (fringing adds C).
	if got < want {
		t.Fatalf("BEM capacitance %.4g should include fringing above %.4g", got, want)
	}
}

func TestMaxwellCapacitanceSigns(t *testing.T) {
	m := mustMesh(t, geom.RectShape(0, 0, 8e-3, 8e-3), 4, 4)
	k := mustKernel(t, greens.OverGround, 0.3e-3, 4.5, 1)
	a, err := Assemble(m, k, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c, err := a.CellCapacitance()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Rows; i++ {
		if c.At(i, i) <= 0 {
			t.Fatalf("C[%d][%d] must be positive", i, i)
		}
		rowSum := 0.0
		for j := 0; j < c.Cols; j++ {
			rowSum += c.At(i, j)
			if i != j && c.At(i, j) > 1e-18 {
				t.Fatalf("off-diagonal C[%d][%d] = %g must be ≤ 0", i, j, c.At(i, j))
			}
		}
		if rowSum <= 0 {
			t.Fatalf("row %d of Maxwell C must have positive sum (capacitance to ground), got %g", i, rowSum)
		}
	}
}

func TestInductanceMatrixProperties(t *testing.T) {
	m := mustMesh(t, geom.RectShape(0, 0, 10e-3, 10e-3), 5, 5)
	k := mustKernel(t, greens.OverGround, 0.4e-3, 4.5, 1)
	a, err := Assemble(m, k, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	l := a.L
	if !l.IsSymmetric(1e-12) {
		t.Fatal("L must be symmetric")
	}
	for i, li := range m.Links {
		if l.At(i, i) <= 0 {
			t.Fatalf("self inductance of link %d must be positive", i)
		}
		for j, lj := range m.Links {
			if li.Dir != lj.Dir && l.At(i, j) != 0 {
				t.Fatalf("orthogonal links %d,%d must not couple", i, j)
			}
			if i != j && math.Abs(l.At(i, j)) >= l.At(i, i) {
				t.Fatalf("mutual (%d,%d) exceeds self inductance", i, j)
			}
		}
	}
	if _, err := mat.NewCholesky(l); err != nil {
		t.Fatalf("L must be positive definite: %v", err)
	}
}

func TestGroundPlaneReducesInductance(t *testing.T) {
	m := mustMesh(t, geom.RectShape(0, 0, 10e-3, 10e-3), 5, 5)
	kfs := mustKernel(t, greens.FreeSpace, 0, 1, 1)
	kg := mustKernel(t, greens.OverGround, 0.2e-3, 1, 1)
	afs, err := Assemble(m, kfs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ag, err := Assemble(m, kg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Links {
		if ag.L.At(i, i) >= afs.L.At(i, i) {
			t.Fatalf("image must reduce self inductance of link %d", i)
		}
	}
}

func TestResistanceAssembly(t *testing.T) {
	m := mustMesh(t, geom.RectShape(0, 0, 4e-3, 2e-3), 4, 2)
	k := mustKernel(t, greens.OverGround, 0.3e-3, 4.5, 1)
	opts := DefaultOptions()
	opts.SheetResistance = 0.5e-3 // 0.5 mΩ/sq
	opts.ReturnSheetResistance = 0.5e-3
	a, err := Assemble(m, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range m.Links {
		want := 1e-3 * l.Length / l.Width
		if math.Abs(a.R[i]-want) > 1e-18 {
			t.Fatalf("R[%d] = %g want %g", i, a.R[i], want)
		}
	}
	g := a.ConductanceLaplacian()
	if g == nil {
		t.Fatal("lossy assembly must produce a conductance Laplacian")
	}
	// Laplacian row sums are zero.
	for r := 0; r < g.Rows; r++ {
		var s float64
		for c := 0; c < g.Cols; c++ {
			s += g.At(r, c)
		}
		if math.Abs(s) > 1e-6*g.At(r, r) {
			t.Fatalf("conductance Laplacian row %d sum = %g", r, s)
		}
	}
}

func TestLosslessConductanceIsNil(t *testing.T) {
	m := mustMesh(t, geom.RectShape(0, 0, 2e-3, 2e-3), 2, 2)
	k := mustKernel(t, greens.OverGround, 0.3e-3, 4.5, 1)
	a, err := Assemble(m, k, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.ConductanceLaplacian() != nil {
		t.Fatal("lossless assembly must return nil conductance Laplacian")
	}
}

func TestInverseInductanceLaplacianNullspace(t *testing.T) {
	// Γ·1 = 0: the link network floats relative to the reference node
	// (paper Eq. 26: no self-inductance branch to the reference).
	m := mustMesh(t, geom.RectShape(0, 0, 6e-3, 6e-3), 4, 4)
	k := mustKernel(t, greens.OverGround, 0.3e-3, 4.5, 1)
	a, err := Assemble(m, k, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	g, err := a.InverseInductanceLaplacian()
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, g.Rows)
	for i := range ones {
		ones[i] = 1
	}
	prod := g.MulVec(ones)
	scale := g.MaxAbs()
	for i, v := range prod {
		if math.Abs(v) > 1e-8*scale {
			t.Fatalf("Γ·1 not zero at row %d: %g (scale %g)", i, v, scale)
		}
	}
	if !g.IsSymmetric(1e-8) {
		t.Fatal("Γ must be symmetric")
	}
}

// plusShape is a plus-shaped outline on a 6 mm square: two 2 mm arms
// crossing at the centre. On a 6×6 grid it keeps 20 cells that realise only
// 24 of the bounding grid's 36 offsets, so the offset tables hold entries no
// cell pair reads.
func plusShape() geom.Shape {
	var outline geom.Polygon
	for _, xy := range [][2]float64{{2, 0}, {4, 0}, {4, 2}, {6, 2}, {6, 4}, {4, 4}, {4, 6}, {2, 6}, {2, 4}, {0, 4}, {0, 2}, {2, 2}} {
		outline = append(outline, geom.Point{X: xy[0] * 1e-3, Y: xy[1] * 1e-3})
	}
	return geom.Shape{Outline: outline}
}

// holedShape is an 8×6 mm plane with a 2×2 mm anti-pad in the middle.
func holedShape() geom.Shape {
	s := geom.RectShape(0, 0, 8e-3, 6e-3)
	s.Holes = []geom.Polygon{{
		{X: 3e-3, Y: 2e-3}, {X: 5e-3, Y: 2e-3}, {X: 5e-3, Y: 4e-3}, {X: 3e-3, Y: 4e-3},
	}}
	return s
}

// realisedOffsets counts, naively, the distinct grid offsets realised by a
// pair of cells (P) and by a pair of same-direction links (L, keyed by
// direction too): the integrals the offset tables must evaluate.
func realisedOffsets(m *mesh.Mesh) (p, l int) {
	type key struct {
		dir      int // -1 for cells
		dix, diy int
	}
	seen := map[key]bool{}
	for _, ci := range m.Cells {
		for _, cj := range m.Cells {
			seen[key{-1, abs(ci.IX - cj.IX), abs(ci.IY - cj.IY)}] = true
		}
	}
	p = len(seen)
	for _, li := range m.Links {
		for _, lj := range m.Links {
			if li.Dir == lj.Dir {
				fi, fj := m.Cells[li.From], m.Cells[lj.From]
				seen[key{int(li.Dir), abs(fi.IX - fj.IX), abs(fi.IY - fj.IY)}] = true
			}
		}
	}
	return p, len(seen) - p
}

// TestToeplitzCachingMatchesDirect compares the offset-table fill against
// the direct fill on full and partial planes, where the partial ones leave
// offsets of the bounding grid unrealised, and checks that exactly the
// realised offsets are evaluated.
func TestToeplitzCachingMatchesDirect(t *testing.T) {
	k := mustKernel(t, greens.OverGround, 0.25e-3, 4.5, 1)
	cases := []struct {
		name     string
		shape    geom.Shape
		nx, ny   int
		pOffsets int // distinct P offsets the mesh realises, when pinned
	}{
		{"rect", geom.RectShape(0, 0, 6e-3, 4e-3), 6, 4, 24},
		{"lshape", geom.LShape(8e-3, 8e-3, 3e-3, 4e-3), 8, 8, 0},
		{"holed", holedShape(), 8, 6, 0},
		{"plus", plusShape(), 6, 6, 24},
	}
	for _, tc := range cases {
		for _, ts := range []TestingScheme{Collocation, Galerkin} {
			m := mustMesh(t, tc.shape, tc.nx, tc.ny)
			optFast := DefaultOptions()
			optFast.Testing = ts
			optSlow := optFast
			optSlow.Operator = OpDirect
			fast, err := Assemble(m, k, optFast)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := Assemble(m, k, optSlow)
			if err != nil {
				t.Fatal(err)
			}
			for i := range fast.P.Data {
				if math.Abs(fast.P.Data[i]-slow.P.Data[i]) > 1e-9*slow.P.MaxAbs() {
					t.Fatalf("%s/%v: P entry %d differs between cached and direct assembly", tc.name, ts, i)
				}
			}
			for i := range fast.L.Data {
				if math.Abs(fast.L.Data[i]-slow.L.Data[i]) > 1e-9*slow.L.MaxAbs() {
					t.Fatalf("%s/%v: L entry %d differs between cached and direct assembly", tc.name, ts, i)
				}
			}
			pOff, lOff := realisedOffsets(m)
			if tc.pOffsets != 0 && pOff != tc.pOffsets {
				t.Fatalf("%s: mesh realises %d P offsets, want %d", tc.name, pOff, tc.pOffsets)
			}
			if fast.KernelEvals != pOff+lOff {
				t.Fatalf("%s/%v: cached fill made %d kernel evaluations, want one per realised offset (%d P + %d L)",
					tc.name, ts, fast.KernelEvals, pOff, lOff)
			}
			if fast.KernelEvals >= slow.KernelEvals {
				t.Fatalf("%s/%v: Toeplitz caching should reduce kernel evaluations: %d vs %d",
					tc.name, ts, fast.KernelEvals, slow.KernelEvals)
			}
		}
	}
}

func TestDCPotentialStrip(t *testing.T) {
	// A 1-cell-wide strip is a 1-D resistor chain: drawing I at the far end
	// with the near end grounded drops V = I · ρ_sq · (squares between the
	// cell centres).
	m := mustMesh(t, geom.RectShape(0, 0, 10e-3, 1e-3), 10, 1)
	k := mustKernel(t, greens.OverGround, 0.3e-3, 4.5, 1)
	opts := DefaultOptions()
	opts.SheetResistance = 1e-3
	a, err := Assemble(m, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	v, err := a.DCPotential(map[int]float64{9: 2.0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Nine links of 1 square each at 1 mΩ/sq, 2 A → 18 mV total drop.
	want := -2.0 * 1e-3 * 9
	if math.Abs(v[9]-want) > 1e-9 {
		t.Fatalf("far-end potential = %g want %g", v[9], want)
	}
	if v[0] != 0 {
		t.Fatalf("reference cell potential = %g", v[0])
	}
	// Monotone drop along the strip.
	for i := 1; i < 10; i++ {
		if v[i] >= v[i-1] {
			t.Fatalf("potential must fall along the strip: %v", v)
		}
	}
	if d := WorstIRDrop(v); math.Abs(d-(-want)) > 1e-9 {
		t.Fatalf("WorstIRDrop = %g", d)
	}
}

func TestDCPotentialValidation(t *testing.T) {
	m := mustMesh(t, geom.RectShape(0, 0, 4e-3, 4e-3), 4, 4)
	k := mustKernel(t, greens.OverGround, 0.3e-3, 4.5, 1)
	lossless, err := Assemble(m, k, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lossless.DCPotential(map[int]float64{1: 1}, 0); err == nil {
		t.Fatal("lossless plane must reject IR-drop solves")
	}
	opts := DefaultOptions()
	opts.SheetResistance = 1e-3
	a, err := Assemble(m, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.DCPotential(map[int]float64{99: 1}, 0); err == nil {
		t.Fatal("out-of-range injection must error")
	}
	if _, err := a.DCPotential(map[int]float64{1: 1}, -1); err == nil {
		t.Fatal("out-of-range reference must error")
	}
}

func TestDCCurrentsConservation(t *testing.T) {
	// On the 1-D strip every link carries the full load current, and KCL
	// holds at every interior cell.
	m := mustMesh(t, geom.RectShape(0, 0, 10e-3, 1e-3), 10, 1)
	k := mustKernel(t, greens.OverGround, 0.3e-3, 4.5, 1)
	opts := DefaultOptions()
	opts.SheetResistance = 1e-3
	a, err := Assemble(m, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	v, err := a.DCPotential(map[int]float64{9: 2.0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := a.DCCurrents(v)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cur {
		if math.Abs(math.Abs(c)-2.0) > 1e-9 {
			t.Fatalf("link %d current = %g want ±2", i, c)
		}
	}
	// Width 1 mm → worst density 2 A / 1 mm = 2000 A/m.
	if d := a.WorstCurrentDensity(cur); math.Abs(d-2000) > 1e-6 {
		t.Fatalf("worst density = %g", d)
	}
	if _, err := a.DCCurrents(v[:3]); err == nil {
		t.Fatal("short potential vector must error")
	}
}

func TestDCPotentialLargeMeshCGPath(t *testing.T) {
	// >600 cells routes through the conjugate-gradient solver; the 1-D
	// strip analytic answer must still hold exactly.
	m := mustMesh(t, geom.RectShape(0, 0, 70e-2, 1e-3), 700, 1)
	k := mustKernel(t, greens.OverGround, 0.3e-3, 4.5, 1)
	opts := DefaultOptions()
	opts.SheetResistance = 2e-3
	a, err := Assemble(m, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	v, err := a.DCPotential(map[int]float64{699: 1.0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := -1.0 * 2e-3 * 699
	if math.Abs(v[699]-want) > 1e-6*math.Abs(want) {
		t.Fatalf("CG strip drop = %g want %g", v[699], want)
	}
}

func TestDCPotentialSuperpositionProperty(t *testing.T) {
	// Linearity: the solution for two loads is the sum of the individual
	// solutions.
	m := mustMesh(t, geom.RectShape(0, 0, 10e-3, 8e-3), 8, 6)
	k := mustKernel(t, greens.OverGround, 0.3e-3, 4.5, 1)
	opts := DefaultOptions()
	opts.SheetResistance = 0.7e-3
	a, err := Assemble(m, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	vA, err := a.DCPotential(map[int]float64{13: 1.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	vB, err := a.DCPotential(map[int]float64{40: 0.8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	vAB, err := a.DCPotential(map[int]float64{13: 1.5, 40: 0.8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vAB {
		if math.Abs(vAB[i]-(vA[i]+vB[i])) > 1e-12 {
			t.Fatalf("superposition violated at cell %d", i)
		}
	}
}

func TestGalerkinCloseToCollocation(t *testing.T) {
	// The two testing schemes are different discretisations of the same
	// operator; their total capacitance must agree to a few percent.
	m := mustMesh(t, geom.RectShape(0, 0, 20e-3, 20e-3), 8, 8)
	k := mustKernel(t, greens.OverGround, 0.5e-3, 4.5, 1)
	oc := DefaultOptions()
	og := DefaultOptions()
	og.Testing = Galerkin
	ac, err := Assemble(m, k, oc)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := Assemble(m, k, og)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := ac.TotalCapacitance()
	if err != nil {
		t.Fatal(err)
	}
	cg, err := ag.TotalCapacitance()
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(cc-cg) / cg; e > 0.05 {
		t.Fatalf("testing schemes disagree: collocation %g vs galerkin %g (err %.3f)", cc, cg, e)
	}
}
