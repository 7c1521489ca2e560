package bem

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"pdnsim/internal/geom"
	"pdnsim/internal/greens"
	"pdnsim/internal/mat"
	"pdnsim/internal/mesh"
	"pdnsim/internal/simerr"
)

// toeplitzOpAgreeTol is the agreement contract between the emitted Toeplitz
// operators and the dense fill: the operator's FFT product is exact up to
// roundoff, so 1e-13 relative (the ISSUE 10 property-test bound).
const toeplitzOpAgreeTol = 1e-13

// gradedMesh builds a deliberately non-uniform 3×3 mesh: columns of widths
// 1, 1.5 and 2.5 mm. Integer grid coordinates are still consistent, so only
// the uniform-size validation can tell it apart from a true grid.
func gradedMesh() *mesh.Mesh {
	xs := []float64{0, 1e-3, 2.5e-3, 5e-3}
	ys := []float64{0, 1e-3, 2e-3, 3e-3}
	m := &mesh.Mesh{Shape: geom.RectShape(0, 0, xs[3], ys[3])}
	for iy := 0; iy < 3; iy++ {
		for ix := 0; ix < 3; ix++ {
			r := geom.Rect{X0: xs[ix], Y0: ys[iy], X1: xs[ix+1], Y1: ys[iy+1]}
			m.Cells = append(m.Cells, mesh.Cell{
				Index: len(m.Cells), IX: ix, IY: iy, Rect: r, Center: r.Center(),
			})
		}
	}
	return m
}

// TestGradedMeshFallsBackToDirectFill is the uniform-grid regression test:
// before the guard, Toeplitz caching on a graded mesh silently filled P from
// one column's kernel values; now it must fall back to the direct fill (same
// entries as OpDirect), record that path in Opts and leave a diag warning.
func TestGradedMeshFallsBackToDirectFill(t *testing.T) {
	k := mustKernel(t, greens.OverGround, 0.4e-3, 4.2, 1)
	assertDirectFallback(t, "graded mesh", gradedMesh, k)
}

// assertDirectFallback asserts that a mesh failing the uniform-grid check
// takes the direct fill under OpAuto and OpDense, with a grid-uniformity
// warning and no operators, and is ErrBadInput under OpToeplitz.
func assertDirectFallback(t *testing.T, what string, build func() *mesh.Mesh, k *greens.Kernel) {
	t.Helper()
	direct := DefaultOptions()
	direct.Operator = OpDirect
	ad, err := AssembleCtx(context.Background(), build(), k, direct)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []OperatorMode{OpAuto, OpDense} {
		opts := DefaultOptions()
		opts.Operator = mode
		at, err := AssembleCtx(context.Background(), build(), k, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range at.P().Data {
			if at.P().Data[i] != ad.P().Data[i] {
				t.Fatalf("%s (%v): fallback P differs from the direct fill at flat index %d: %g vs %g",
					what, mode, i, at.P().Data[i], ad.P().Data[i])
			}
		}
		for i := range at.L().Data {
			if at.L().Data[i] != ad.L().Data[i] {
				t.Fatalf("%s (%v): fallback L differs from the direct fill at flat index %d", what, mode, i)
			}
		}
		if at.POp != nil || at.LOps[0] != nil || at.LOps[1] != nil {
			t.Fatalf("%s (%v) must not emit a Toeplitz operator", what, mode)
		}
		if at.Opts.Operator != OpDirect {
			t.Fatalf("%s (%v): Opts.Operator = %v after the fallback, want direct", what, mode, at.Opts.Operator)
		}
		warned := false
		for _, item := range at.Diag.Items() {
			if item.Check == "grid uniformity" {
				warned = true
			}
		}
		if !warned {
			t.Fatalf("%s (%v): fallback must record a grid-uniformity diag warning", what, mode)
		}
	}
	forced := DefaultOptions()
	forced.Operator = OpToeplitz
	if _, err := AssembleCtx(context.Background(), build(), k, forced); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("%s: Operator: toeplitz must be ErrBadInput, got %v", what, err)
	}
}

func TestGradedMeshWithForcedOperatorErrors(t *testing.T) {
	k := mustKernel(t, greens.OverGround, 0.4e-3, 4.2, 1)
	opts := DefaultOptions()
	opts.Operator = OpToeplitz
	if _, err := AssembleCtx(context.Background(), gradedMesh(), k, opts); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("Operator: toeplitz on a graded mesh must be ErrBadInput, got %v", err)
	}
}

// TestMisplacedCellsFailGridValidation: cells of uniform size whose integer
// coordinates do not match where they sit break translation invariance just
// as a graded mesh does, so they must take the same fallback. Before the
// origin and repeat checks, all three meshes below passed validation and
// emitted operators. The cached P was 47 % (shifted cell) and 89 %
// (relabelled cell) of its largest entry off the direct fill; with a
// repeated coordinate the dense fill is right, but the operator's grid
// scatter keeps only one of the two cells, so its product is not.
func TestMisplacedCellsFailGridValidation(t *testing.T) {
	k := mustKernel(t, greens.OverGround, 0.4e-3, 4.2, 1)
	grid := func(edit func(m *mesh.Mesh)) func() *mesh.Mesh {
		return func() *mesh.Mesh {
			m := mustMesh(t, geom.RectShape(0, 0, 6e-3, 6e-3), 6, 6)
			edit(m)
			return m
		}
	}
	// Shift cell 14 right by half a cell, keeping its (IX, IY).
	assertDirectFallback(t, "shifted cell", grid(func(m *mesh.Mesh) {
		c := &m.Cells[14]
		d := c.Rect.W() / 2
		c.Rect.X0, c.Rect.X1, c.Center.X = c.Rect.X0+d, c.Rect.X1+d, c.Center.X+d
	}), k)
	// Give cell 14 the grid coordinate of cell 15.
	assertDirectFallback(t, "relabelled cell", grid(func(m *mesh.Mesh) {
		m.Cells[14].IX, m.Cells[14].IY = m.Cells[15].IX, m.Cells[15].IY
	}), k)
	// A second cell on top of cell 14: its origin is consistent, only its
	// coordinate repeats.
	assertDirectFallback(t, "repeated coordinate", grid(func(m *mesh.Mesh) {
		c := m.Cells[14]
		c.Index = len(m.Cells)
		m.Cells = append(m.Cells, c)
	}), k)
}

func TestOperatorModeString(t *testing.T) {
	if OpAuto.String() != "auto" || OpDense.String() != "dense" || OpToeplitz.String() != "toeplitz" ||
		OpDirect.String() != "direct" {
		t.Fatal("OperatorMode labels")
	}
}

// TestToeplitzOpsMatchDenseFill asserts the tentpole property: the emitted P
// operator and per-direction L operators reproduce the dense fill's products
// to 1e-13 relative, across odd and even grid sizes and on a plus-shaped
// plane that leaves offsets of its bounding grid unrealised.
func TestToeplitzOpsMatchDenseFill(t *testing.T) {
	k := mustKernel(t, greens.OverGround, 0.4e-3, 4.2, 1)
	meshes := []*mesh.Mesh{mustMesh(t, plusShape(), 6, 6)}
	for _, dims := range [][2]int{{4, 4}, {5, 3}, {7, 7}, {6, 9}} {
		meshes = append(meshes, mustMesh(t, geom.RectShape(0, 0, 8e-3, 8e-3), dims[0], dims[1]))
	}
	for _, m := range meshes {
		a, err := AssembleCtx(context.Background(), m, k, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if a.POp == nil {
			t.Fatalf("%d-cell mesh: uniform grid must emit POp", len(m.Cells))
		}
		if a.POp.Size() != len(m.Cells) {
			t.Fatalf("POp size %d, want %d cells", a.POp.Size(), len(m.Cells))
		}
		x := make([]float64, len(m.Cells))
		for i := range x {
			x[i] = math.Sin(float64(3*i + 1)) // deterministic non-trivial vector
		}
		got := toeplitzMulVec(a.POp, x)
		want := mulVec(a.P(), x)
		assertVecAgree(t, "P", got, want)

		// Per-direction L blocks: apply the operator to the direction's
		// sub-vector and compare against the dense L product restricted to
		// those links (orthogonal directions do not couple, so the dense
		// product of a direction-supported vector stays in the block).
		for _, dir := range []mesh.Direction{mesh.DirX, mesh.DirY} {
			var idx []int
			for i := range m.Links {
				if m.Links[i].Dir == dir {
					idx = append(idx, i)
				}
			}
			if len(idx) == 0 {
				if a.LOps[dir] != nil {
					t.Fatalf("direction %v has no links but an operator", dir)
				}
				continue
			}
			op := a.LOps[dir]
			if op == nil || op.Size() != len(idx) {
				t.Fatalf("direction %v operator missing or sized wrong", dir)
			}
			xb := make([]float64, len(idx))
			full := make([]float64, len(m.Links))
			for i, li := range idx {
				xb[i] = math.Cos(float64(2*li + 1))
				full[li] = xb[i]
			}
			gotB := toeplitzMulVec(op, xb)
			wantFull := mulVec(a.L(), full)
			wantB := make([]float64, len(idx))
			for i, li := range idx {
				wantB[i] = wantFull[li]
			}
			assertVecAgree(t, "L "+dir.String(), gotB, wantB)
		}
	}
}

func assertVecAgree(t *testing.T, what string, got, want []float64) {
	t.Helper()
	var scale float64
	for _, w := range want {
		if a := math.Abs(w); a > scale {
			scale = a
		}
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > toeplitzOpAgreeTol*scale {
			t.Fatalf("%s operator[%d] = %.17g, dense %.17g (scale %g)", what, i, got[i], want[i], scale)
		}
	}
}

// TestAssemblyDeterministicSerialVsParallel asserts the fill (and the
// operator product) is bitwise identical whether the panel integrals run on
// one worker or many.
func TestAssemblyDeterministicSerialVsParallel(t *testing.T) {
	k := mustKernel(t, greens.OverGround, 0.4e-3, 4.2, 1)
	build := func() *Assembly {
		m := mustMesh(t, geom.RectShape(0, 0, 6e-3, 6e-3), 6, 6)
		a, err := AssembleCtx(context.Background(), m, k, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	par := build()
	prev := runtime.GOMAXPROCS(1)
	ser := build()
	runtime.GOMAXPROCS(prev)
	for i := range par.P().Data {
		if par.P().Data[i] != ser.P().Data[i] {
			t.Fatalf("P not serial≡parallel deterministic at flat index %d", i)
		}
	}
	for i := range par.L().Data {
		if par.L().Data[i] != ser.L().Data[i] {
			t.Fatalf("L not serial≡parallel deterministic at flat index %d", i)
		}
	}
	x := make([]float64, par.POp.Size())
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	gp, gs := toeplitzMulVec(par.POp, x), toeplitzMulVec(ser.POp, x)
	for i := range gp {
		if gp[i] != gs[i] {
			t.Fatalf("POp matvec not deterministic at %d", i)
		}
	}
}

// TestKernelEvalsCountsOnlyCompleted: a cancelled assembly must not claim
// kernel evaluations it never performed.
func TestKernelEvalsCountsOnlyCompleted(t *testing.T) {
	k := mustKernel(t, greens.OverGround, 0.4e-3, 4.2, 1)
	m := mustMesh(t, geom.RectShape(0, 0, 6e-3, 6e-3), 6, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range []OperatorMode{OpAuto, OpDirect} {
		a := &Assembly{Mesh: m, Kernel: k, Opts: DefaultOptions(), Diag: nil}
		a.Opts.Operator = mode
		if mode != OpDirect {
			nx, ny, _, err := uniformGrid(m)
			if err != nil {
				t.Fatal(err)
			}
			a.gridNX, a.gridNY = nx, ny
		}
		if err := a.assembleP(ctx); !errors.Is(err, simerr.ErrCancelled) {
			t.Fatalf("%v: want ErrCancelled, got %v", mode, err)
		}
		if a.KernelEvals != 0 {
			t.Fatalf("%v: cancelled assembly claims %d kernel evals, want 0", mode, a.KernelEvals)
		}
		if err := a.assembleL(ctx); !errors.Is(err, simerr.ErrCancelled) {
			t.Fatalf("%v: assembleL want ErrCancelled, got %v", mode, err)
		}
		if a.KernelEvals != 0 {
			t.Fatalf("%v: cancelled assembleL claims %d kernel evals, want 0", mode, a.KernelEvals)
		}
	}
}

// TestDenseMatricesBuiltOnDemand: off the OpDirect path AssembleCtx keeps
// only the offset tables and operators. P() and L() build the dense
// matrices on first call, the same matrices an OpDense assembly gives
// (itself built on demand from the same tables), and return that cached
// matrix afterwards. Checked on a full grid and on an L-shaped plane.
func TestDenseMatricesBuiltOnDemand(t *testing.T) {
	k := mustKernel(t, greens.OverGround, 0.4e-3, 4.2, 1)
	for _, c := range []struct {
		name  string
		shape geom.Shape
	}{
		{"full 7x5", geom.RectShape(0, 0, 7e-3, 5e-3)},
		{"L-shaped 8x8", geom.LShape(8e-3, 8e-3, 3e-3, 4e-3)},
	} {
		var asm [2]*Assembly
		for i, mode := range []OperatorMode{OpAuto, OpDense} {
			opts := DefaultOptions()
			opts.Operator = mode
			a, err := AssembleCtx(context.Background(), mustMesh(t, c.shape, 8, 8), k, opts)
			if err != nil {
				t.Fatal(err)
			}
			if a.p.m != nil || a.l.m != nil {
				t.Fatalf("%s (%v): assembly built the dense P or L before anyone asked", c.name, mode)
			}
			asm[i] = a
		}
		auto, dense := asm[0], asm[1]
		if auto.POp == nil || dense.POp != nil {
			t.Fatalf("%s: operators emitted under auto %v, under dense %v", c.name, auto.POp != nil, dense.POp != nil)
		}
		for _, m := range []struct {
			what       string
			auto, want func() *mat.Matrix
		}{{"P", auto.P, dense.P}, {"L", auto.L, dense.L}} {
			got, want := m.auto(), m.want()
			if got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("%s %s: %d×%d, want %d×%d", c.name, m.what, got.Rows, got.Cols, want.Rows, want.Cols)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s %s differs from the OpDense fill at flat index %d: %g vs %g",
						c.name, m.what, i, got.Data[i], want.Data[i])
				}
			}
			if m.auto() != got {
				t.Fatalf("%s %s: second call rebuilt the matrix instead of returning the cached one", c.name, m.what)
			}
		}
	}
}

// TestDenseMatricesConcurrentFirstUse: several goroutines asking for P and
// L at once all get the one cached matrix (run under -race).
func TestDenseMatricesConcurrentFirstUse(t *testing.T) {
	k := mustKernel(t, greens.OverGround, 0.4e-3, 4.2, 1)
	a, err := AssembleCtx(context.Background(), mustMesh(t, geom.RectShape(0, 0, 6e-3, 6e-3), 6, 6), k, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var ps, ls [workers]*mat.Matrix
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps[w], ls[w] = a.P(), a.L()
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if ps[w] != ps[0] || ls[w] != ls[0] {
			t.Fatalf("worker %d got a different P or L than worker 0", w)
		}
	}
}

// TestRealisableOffsetsMatchPairScan holds the occupancy-grid count that
// stops offsetTable's scan to the set of offsets an all-pairs scan finds,
// on random grids with random holes: an undercount would stop the scan
// before some offset had its representative, and its table entry would
// stay zero.
func TestRealisableOffsetsMatchPairScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		nx, ny := 1+rng.Intn(20), 1+rng.Intn(20)
		fill := []float64{0.05, 0.3, 0.7, 0.95, 1}[trial%5]
		var coords [][2]int
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				if rng.Float64() < fill {
					coords = append(coords, [2]int{ix, iy})
				}
			}
		}
		seen := make(map[[2]int]bool)
		for _, p := range coords {
			for _, q := range coords {
				seen[[2]int{abs(p[0] - q[0]), abs(p[1] - q[1])}] = true
			}
		}
		if got := realisableOffsets(coords, nx, ny); got != len(seen) {
			t.Fatalf("trial %d, %d×%d grid with %d unknowns: %d realisable offsets, pair scan finds %d",
				trial, nx, ny, len(coords), got, len(seen))
		}
	}
}

// toeplitzMulVec returns op·x as a new vector.
func toeplitzMulVec(op *mat.ToeplitzOp, x []float64) []float64 {
	dst := make([]float64, op.Size())
	op.MulVecTo(dst, x)
	return dst
}
