package mesh

import (
	"math"
	"strings"
	"testing"

	"pdnsim/internal/geom"
	"pdnsim/internal/mat"
	"pdnsim/internal/simerr"
)

func TestGridFullRectangle(t *testing.T) {
	m, err := Grid(geom.RectShape(0, 0, 4e-3, 2e-3), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(m.Cells))
	}
	// Links in a full 4×2 grid: horizontal 3·2=6, vertical 4·1=4.
	if len(m.Links) != 10 {
		t.Fatalf("links = %d, want 10", len(m.Links))
	}
	if math.Abs(m.Dx-1e-3) > 1e-18 || math.Abs(m.Dy-1e-3) > 1e-18 {
		t.Fatalf("pitch = %g x %g", m.Dx, m.Dy)
	}
	if math.Abs(m.Area()-8e-6) > 1e-15 {
		t.Fatalf("area = %g", m.Area())
	}
	if !m.Connected() {
		t.Fatal("full rectangle must be connected")
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := Grid(geom.RectShape(0, 0, 1, 1), 0, 2); err == nil {
		t.Fatal("expected error for zero nx")
	}
	if _, err := GridWithPitch(geom.RectShape(0, 0, 1, 1), -1); err == nil {
		t.Fatal("expected error for negative pitch")
	}
	// A degenerate shape with empty bounds.
	if _, err := Grid(geom.Shape{}, 2, 2); err == nil {
		t.Fatal("expected error for empty shape")
	}
}

func TestGridLShape(t *testing.T) {
	// 4×4 grid over an L that removes the upper-right 2×2 quadrant:
	// 16 − 4 = 12 cells.
	m, err := Grid(geom.LShape(4e-2, 4e-2, 2e-2, 2e-2), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 12 {
		t.Fatalf("cells = %d, want 12", len(m.Cells))
	}
	if !m.Connected() {
		t.Fatal("L-shape must be connected")
	}
	// No cell centre may fall in the notch.
	for _, c := range m.Cells {
		if c.Center.X > 2e-2 && c.Center.Y > 2e-2 {
			t.Fatalf("cell %d centre %v is inside the notch", c.Index, c.Center)
		}
	}
}

func TestGridWithHole(t *testing.T) {
	s := geom.RectShape(0, 0, 5e-3, 5e-3)
	s.Holes = []geom.Polygon{{
		{X: 2e-3, Y: 2e-3}, {X: 3e-3, Y: 2e-3}, {X: 3e-3, Y: 3e-3}, {X: 2e-3, Y: 3e-3},
	}}
	m, err := Grid(s, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 24 {
		t.Fatalf("cells = %d, want 24 (one removed by the hole)", len(m.Cells))
	}
	if _, ok := m.grid[[2]int{2, 2}]; ok {
		t.Fatal("centre cell should have been removed by the hole")
	}
}

func TestGridWithPitch(t *testing.T) {
	m, err := GridWithPitch(geom.RectShape(0, 0, 10e-3, 5e-3), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 50 {
		t.Fatalf("cells = %d, want 50", len(m.Cells))
	}
}

func TestLinksGeometry(t *testing.T) {
	m, err := Grid(geom.RectShape(0, 0, 2e-3, 1e-3), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Links) != 1 {
		t.Fatalf("links = %d, want 1", len(m.Links))
	}
	l := m.Links[0]
	if l.Dir != DirX {
		t.Fatalf("dir = %v", l.Dir)
	}
	if math.Abs(l.Length-1e-3) > 1e-18 {
		t.Fatalf("length = %g", l.Length)
	}
	if math.Abs(l.Width-1e-3) > 1e-18 {
		t.Fatalf("width = %g", l.Width)
	}
	// Patch spans between the two cell centres.
	if math.Abs(l.Patch.X0-0.5e-3) > 1e-18 || math.Abs(l.Patch.X1-1.5e-3) > 1e-18 {
		t.Fatalf("patch = %+v", l.Patch)
	}
}

func TestDirectionString(t *testing.T) {
	if DirX.String() != "x" || DirY.String() != "y" {
		t.Fatal("Direction.String")
	}
}

func TestIncidenceRowSumsZero(t *testing.T) {
	// Each link contributes +1 and −1, so every column sums to zero.
	m, err := Grid(geom.RectShape(0, 0, 3e-3, 3e-3), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := m.Incidence()
	if a.Rows != 9 || a.Cols != 12 {
		t.Fatalf("incidence shape %dx%d", a.Rows, a.Cols)
	}
	for c := 0; c < a.Cols; c++ {
		var s, abs float64
		for r := 0; r < a.Rows; r++ {
			s += a.At(r, c)
			abs += math.Abs(a.At(r, c))
		}
		if s != 0 || abs != 2 {
			t.Fatalf("column %d: sum=%g |sum|=%g", c, s, abs)
		}
	}
}

func TestIncidenceMatchesLinkEndpoints(t *testing.T) {
	m, err := Grid(geom.RectShape(0, 0, 2e-3, 2e-3), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := m.Incidence()
	for _, l := range m.Links {
		if a.At(l.From, l.Index) != 1 || a.At(l.To, l.Index) != -1 {
			t.Fatalf("link %d incidence wrong", l.Index)
		}
	}
}

func TestNearestCellAndPorts(t *testing.T) {
	m, err := Grid(geom.RectShape(0, 0, 4e-3, 4e-3), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	ci := m.NearestCell(geom.Point{X: 0.4e-3, Y: 3.7e-3})
	c := m.Cells[ci]
	if c.IX != 0 || c.IY != 3 {
		t.Fatalf("nearest cell = (%d,%d)", c.IX, c.IY)
	}
	p1, err := m.AddPort("VCC1", geom.Point{X: 0.1e-3, Y: 0.1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Cell != 0 {
		t.Fatalf("port cell = %d", p1.Cell)
	}
	if _, err := m.AddPort("VCC2", geom.Point{X: 0.2e-3, Y: 0.2e-3}); err == nil {
		t.Fatal("expected shared-cell error")
	}
	if _, err := m.AddPort("VCC1", geom.Point{X: 3.9e-3, Y: 3.9e-3}); err == nil {
		t.Fatal("expected duplicate-name error")
	}
	if _, err := m.AddPort("GND1", geom.Point{X: 3.9e-3, Y: 3.9e-3}); err != nil {
		t.Fatal(err)
	}
	cells := m.PortCells()
	if len(cells) != 2 || cells[0] != p1.Cell {
		t.Fatalf("PortCells = %v", cells)
	}
}

func TestSplitPlanesDisconnected(t *testing.T) {
	// Two split nets meshed together must be detected as disconnected; each
	// net meshed alone must be connected (the paper's Fig. 1 meshes the two
	// nets separately).
	left, right := geom.SplitPlanes(20e-3, 10e-3, 12e-3, 1e-3)
	both := geom.RectShape(0, 0, 20e-3, 10e-3)
	both.Holes = []geom.Polygon{{
		{X: 11.5e-3, Y: -1e-3}, {X: 12.5e-3, Y: -1e-3},
		{X: 12.5e-3, Y: 11e-3}, {X: 11.5e-3, Y: 11e-3},
	}}
	m, err := Grid(both, 40, 20)
	if err != nil {
		t.Fatal(err)
	}
	if m.Connected() {
		t.Fatal("slotted plane should be disconnected")
	}
	ml, err := Grid(left, 23, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !ml.Connected() {
		t.Fatal("left net should be connected")
	}
	mr, err := Grid(right, 15, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !mr.Connected() {
		t.Fatal("right net should be connected")
	}
}

func TestStatsString(t *testing.T) {
	m, err := Grid(geom.RectShape(0, 0, 1e-2, 1e-2), 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Cells != 100 || s.Links != 180 {
		t.Fatalf("stats = %+v", s)
	}
	if !strings.Contains(s.String(), "cells=100") {
		t.Fatalf("Stats.String = %q", s.String())
	}
	if math.Abs(s.CoveredArea-s.ShapeArea) > 1e-12 {
		t.Fatalf("full rectangle should be fully covered: %+v", s)
	}
}

func TestMeshAreaApproximatesShapeArea(t *testing.T) {
	// Refining the grid must converge the covered area to the true area.
	sh := geom.LShape(10e-3, 10e-3, 4e-3, 6e-3)
	prevErr := math.Inf(1)
	for _, n := range []int{5, 10, 20, 40} {
		m, err := Grid(sh, n, n)
		if err != nil {
			t.Fatal(err)
		}
		e := math.Abs(m.Area()-sh.Area()) / sh.Area()
		if e > prevErr+1e-12 {
			t.Fatalf("coverage error must not grow: n=%d err=%g prev=%g", n, e, prevErr)
		}
		prevErr = e
	}
	if prevErr > 0.02 {
		t.Fatalf("coverage not converged: %g", prevErr)
	}
}

// GridWithPitch meshes with a target element pitch (same pitch both axes,
// rounded to an integer cell count per axis).
func GridWithPitch(shape geom.Shape, pitch float64) (*Mesh, error) {
	if pitch <= 0 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mesh: pitch must be positive")
	}
	b := shape.Bounds()
	nx := int(math.Max(1, math.Round(b.W()/pitch)))
	ny := int(math.Max(1, math.Round(b.H()/pitch)))
	return Grid(shape, nx, ny)
}

// TestBandLaplacianMatchesIncidence checks the packed band against the
// dense A·diag(w)·Aᵀ restricted to a cell subset, on an L-shaped mesh with
// cells left out: every in-band entry matches, nothing falls outside the
// band, and over all cells with unit weights every row sums to zero.
func TestBandLaplacianMatchesIncidence(t *testing.T) {
	m, err := Grid(geom.LShape(8e-3, 6e-3, 3e-3, 2e-3), 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, len(m.Links))
	for i := range w {
		w[i] = 1 + float64(i%5)
	}
	full := mat.New(len(m.Cells), len(m.Cells))
	for i, l := range m.Links {
		full.Add(l.From, l.From, w[i])
		full.Add(l.To, l.To, w[i])
		full.Add(l.From, l.To, -w[i])
		full.Add(l.To, l.From, -w[i])
	}
	var cells []int
	for c := range m.Cells {
		if c%7 != 3 {
			cells = append(cells, c)
		}
	}
	packed, bw, pos := m.BandLaplacian(cells, w)
	if len(packed) != len(cells)*(bw+1) {
		t.Fatalf("packed has %d entries, want %d·%d", len(packed), len(cells), bw+1)
	}
	for p, c := range cells {
		if pos[c] != p {
			t.Fatalf("pos[%d] = %d, want %d", c, pos[c], p)
		}
		for q, d := range cells[:p+1] {
			want := full.At(c, d)
			if p-q > bw {
				if want != 0 {
					t.Fatalf("entry (%d,%d) = %g lies outside bandwidth %d", p, q, want, bw)
				}
				continue
			}
			if got := packed[p*(bw+1)+(p-q)]; math.Abs(got-want) > 1e-12 {
				t.Fatalf("entry (%d,%d) = %g, want %g", p, q, got, want)
			}
		}
	}

	all := make([]int, len(m.Cells))
	for i := range all {
		all[i] = i
	}
	packed, bw, _ = m.BandLaplacian(all, nil)
	rows := make([]float64, len(all))
	for p := range all {
		rows[p] += packed[p*(bw+1)]
		for d := 1; d <= bw && d <= p; d++ {
			rows[p] += packed[p*(bw+1)+d]
			rows[p-d] += packed[p*(bw+1)+d]
		}
	}
	for p, s := range rows {
		if s != 0 {
			t.Fatalf("unit-weight Laplacian row %d sums to %g", p, s)
		}
	}
}
