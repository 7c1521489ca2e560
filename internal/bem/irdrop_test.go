package bem

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"pdnsim/internal/geom"
	"pdnsim/internal/greens"
	"pdnsim/internal/mat"
	"pdnsim/internal/simerr"
)

// irDropRefRelTol bounds the difference, relative to the largest reference
// potential, between DCPotential's banded solve and the dense reference.
// Both factor the same grounded Laplacian, whose condition number on these
// boards is a few thousand, so they agree to a few hundred ulps.
const irDropRefRelTol = 1e-12

// denseIRDrop is the reference IR-drop solve: the dense n×n conductance
// Laplacian with the reference cell's row and column deleted, solved by
// dense Cholesky.
func denseIRDrop(t *testing.T, a *Assembly, loads map[int]float64, ref int) []float64 {
	t.Helper()
	n := len(a.Mesh.Cells)
	g := mat.New(n, n)
	for i, l := range a.Mesh.Links {
		gi := 1 / a.R[i]
		g.Add(l.From, l.From, gi)
		g.Add(l.To, l.To, gi)
		g.Add(l.From, l.To, -gi)
		g.Add(l.To, l.From, -gi)
	}
	keep := mat.Complement(n, []int{ref})
	rhs := mat.New(len(keep), 1)
	for i, c := range keep {
		rhs.Set(i, 0, -loads[c])
	}
	x, err := mat.SolveSPD(g.Submatrix(keep, keep), rhs)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, n)
	for i, c := range keep {
		out[c] = x.At(i, 0)
	}
	return out
}

// irDropBoards are the outlines of the IR-drop tests, each meshed below
// and above 600 cells.
func irDropBoards() []struct {
	name string
	sh   geom.Shape
} {
	holed := geom.RectShape(0, 0, 30e-3, 24e-3)
	holed.Holes = []geom.Polygon{
		{{X: 6e-3, Y: 5e-3}, {X: 12e-3, Y: 5e-3}, {X: 12e-3, Y: 11e-3}, {X: 6e-3, Y: 11e-3}},
		{{X: 18e-3, Y: 13e-3}, {X: 25e-3, Y: 13e-3}, {X: 25e-3, Y: 19e-3}, {X: 18e-3, Y: 19e-3}},
	}
	return []struct {
		name string
		sh   geom.Shape
	}{
		{"rect", geom.RectShape(0, 0, 30e-3, 24e-3)},
		{"lshape", geom.LShape(30e-3, 24e-3, 14e-3, 10e-3)},
		{"holed", holed},
	}
}

// TestDCPotentialMatchesDenseReference solves seeded loads on rectangles,
// L shapes and holed boards of 300–900 cells and compares every potential
// with the dense grounded-Laplacian reference.
func TestDCPotentialMatchesDenseReference(t *testing.T) {
	r := rand.New(rand.NewPCG(29, 1))
	k := mustKernel(t, greens.OverGround, 0.3e-3, 4.5, 1)
	for _, bd := range irDropBoards() {
		for _, cells := range []int{400, 900} {
			nx := 20 + r.IntN(10)
			ny := max(2, cells/nx)
			opts := DefaultOptions()
			opts.Operator = OpDense
			opts.SheetResistance = 0.3e-3 + r.Float64()*1e-3
			a, err := AssembleCtx(context.Background(), mustMesh(t, bd.sh, nx, ny), k, opts)
			if err != nil {
				t.Fatal(err)
			}
			n := len(a.Mesh.Cells)
			t.Run(fmt.Sprintf("%s/%dcells", bd.name, n), func(t *testing.T) {
				if cells > 600 && n <= 600 || cells < 600 && n >= 600 {
					t.Fatalf("%d cells is on the wrong side of 600", n)
				}
				ref := r.IntN(n)
				loads := map[int]float64{}
				for len(loads) < 1+r.IntN(4) {
					if c := r.IntN(n); c != ref {
						loads[c] = 0.1 + 2*r.Float64()
					}
				}
				got, err := a.DCPotential(context.Background(), loads, ref)
				if err != nil {
					t.Fatal(err)
				}
				want := denseIRDrop(t, a, loads, ref)
				var dev, scale float64
				for c := range want {
					dev = math.Max(dev, math.Abs(got[c]-want[c]))
					scale = math.Max(scale, math.Abs(want[c]))
				}
				if got[ref] != 0 || !(dev <= irDropRefRelTol*scale) {
					t.Fatalf("banded and dense IR drop differ by %.3g of %.3g (reference cell %g)", dev, scale, got[ref])
				}
			})
		}
	}
}

// TestDCPotentialIslandLoadIsSingular puts the load on an island cut off
// from the reference by a full-height slot, below and above 600 cells: the
// solve must fail as simerr.ErrSingular rather than return potentials.
func TestDCPotentialIslandLoadIsSingular(t *testing.T) {
	k := mustKernel(t, greens.OverGround, 0.3e-3, 4.5, 1)
	opts := DefaultOptions()
	opts.SheetResistance = 0.7e-3
	for _, sz := range [][2]int{{20, 10}, {40, 20}} {
		slotted := geom.RectShape(0, 0, 40e-3, 20e-3)
		slotted.Holes = []geom.Polygon{{
			{X: 18.8e-3, Y: -1e-3}, {X: 21.2e-3, Y: -1e-3}, {X: 21.2e-3, Y: 21e-3}, {X: 18.8e-3, Y: 21e-3},
		}}
		a, err := AssembleCtx(context.Background(), mustMesh(t, slotted, sz[0], sz[1]), k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if a.Mesh.Connected() {
			t.Fatalf("%d×%d: the slot must split the plane", sz[0], sz[1])
		}
		far := len(a.Mesh.Cells) - 1
		if _, err := a.DCPotential(context.Background(), map[int]float64{far: 1}, 0); !errors.Is(err, simerr.ErrSingular) {
			t.Fatalf("%d×%d: load across the slot: want ErrSingular, got %v", sz[0], sz[1], err)
		}
	}
}
