// Package mesh discretises planar conductor shapes into the quadrilateral
// boundary elements of the paper's §3.2: pulse cells that carry charge and
// potential unknowns, and rooftop links between adjacent cells that carry
// the surface-current unknowns. The incidence operator between links and
// cells is the discrete form of the continuity equation (paper Eq. 7); its
// transpose is the P matrix of Eq. 10.
package mesh

import (
	"fmt"
	"math"

	"pdnsim/internal/geom"
	"pdnsim/internal/mat"

	"pdnsim/internal/simerr"
)

// Direction of a current link.
type Direction int

const (
	// DirX links connect horizontally adjacent cells.
	DirX Direction = iota
	// DirY links connect vertically adjacent cells.
	DirY
)

func (d Direction) String() string {
	if d == DirX {
		return "x"
	}
	return "y"
}

// Cell is one quadrilateral boundary element carrying a charge/potential
// unknown (pulse basis).
type Cell struct {
	Index  int
	IX, IY int       // grid coordinates
	Rect   geom.Rect // footprint
	Center geom.Point
}

// Area returns the cell area.
func (c Cell) Area() float64 { return c.Rect.Area() }

// Link is a current unknown between two adjacent cells (rooftop basis). The
// positive current direction is From → To. Patch is the footprint of the
// rooftop function (spanning between the two cell centres), used for the
// partial-inductance integrals; Length/Width give the current path geometry
// for the surface-resistance term.
type Link struct {
	Index    int
	From, To int // cell indices
	Dir      Direction
	Length   float64 // centre-to-centre distance along Dir
	Width    float64 // transverse extent
	Patch    geom.Rect
}

// Port marks a cell as an external connection (power/ground pin, via, or
// probe pad — paper §4.2 "every external connection is selected as a
// circuit node").
type Port struct {
	Name  string
	Cell  int
	Point geom.Point // requested location (may differ slightly from the cell centre)
}

// Mesh is a discretised plane shape.
type Mesh struct {
	Shape  geom.Shape
	Dx, Dy float64
	Cells  []Cell
	Links  []Link
	Ports  []Port

	grid map[[2]int]int // (ix,iy) → cell index
}

// Grid meshes the shape's bounding box into nx×ny rectangular elements and
// keeps those whose centre lies inside the shape. Links are created between
// every pair of kept cells that share an edge.
func Grid(shape geom.Shape, nx, ny int) (*Mesh, error) {
	if nx < 1 || ny < 1 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mesh: grid dimensions must be positive, got %dx%d", nx, ny)
	}
	b := shape.Bounds()
	if b.W() <= 0 || b.H() <= 0 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mesh: shape has an empty bounding box")
	}
	m := &Mesh{
		Shape: shape,
		Dx:    b.W() / float64(nx),
		Dy:    b.H() / float64(ny),
		grid:  make(map[[2]int]int),
	}
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			r := geom.Rect{
				X0: b.X0 + float64(ix)*m.Dx,
				Y0: b.Y0 + float64(iy)*m.Dy,
				X1: b.X0 + float64(ix+1)*m.Dx,
				Y1: b.Y0 + float64(iy+1)*m.Dy,
			}
			c := r.Center()
			if !shape.Contains(c) {
				continue
			}
			idx := len(m.Cells)
			m.Cells = append(m.Cells, Cell{Index: idx, IX: ix, IY: iy, Rect: r, Center: c})
			m.grid[[2]int{ix, iy}] = idx
		}
	}
	if len(m.Cells) == 0 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "mesh: no cell centres fall inside the shape; refine the grid")
	}
	m.buildLinks()
	return m, nil
}

func (m *Mesh) buildLinks() {
	for _, c := range m.Cells {
		// Link to the right neighbour.
		if j, ok := m.grid[[2]int{c.IX + 1, c.IY}]; ok {
			n := m.Cells[j]
			patch := geom.Rect{X0: c.Center.X, Y0: c.Rect.Y0, X1: n.Center.X, Y1: c.Rect.Y1}
			m.Links = append(m.Links, Link{
				Index: len(m.Links), From: c.Index, To: j, Dir: DirX,
				Length: n.Center.X - c.Center.X, Width: c.Rect.H(), Patch: patch,
			})
		}
		// Link to the upper neighbour.
		if j, ok := m.grid[[2]int{c.IX, c.IY + 1}]; ok {
			n := m.Cells[j]
			patch := geom.Rect{X0: c.Rect.X0, Y0: c.Center.Y, X1: c.Rect.X1, Y1: n.Center.Y}
			m.Links = append(m.Links, Link{
				Index: len(m.Links), From: c.Index, To: j, Dir: DirY,
				Length: n.Center.Y - c.Center.Y, Width: c.Rect.W(), Patch: patch,
			})
		}
	}
}

// NearestCell returns the index of the cell whose centre is closest to p.
func (m *Mesh) NearestCell(p geom.Point) int {
	best, bestD := -1, math.Inf(1)
	for _, c := range m.Cells {
		if d := c.Center.Dist(p); d < bestD {
			best, bestD = c.Index, d
		}
	}
	return best
}

// AddPort registers an external connection at the cell nearest to p. Two
// ports may not share a cell (they would be electrically identical nodes).
func (m *Mesh) AddPort(name string, p geom.Point) (Port, error) {
	ci := m.NearestCell(p)
	if ci < 0 {
		return Port{}, simerr.Tagf(simerr.ErrBadInput, "mesh: no cells to attach port to")
	}
	for _, ex := range m.Ports {
		if ex.Cell == ci {
			return Port{}, simerr.Tagf(simerr.ErrBadInput, "mesh: port %q would share cell %d with port %q; refine the mesh or move the port", name, ci, ex.Name)
		}
		if ex.Name == name {
			return Port{}, simerr.Tagf(simerr.ErrBadInput, "mesh: duplicate port name %q", name)
		}
	}
	port := Port{Name: name, Cell: ci, Point: p}
	m.Ports = append(m.Ports, port)
	return port, nil
}

// PortCells returns the cell index of every registered port, in order.
func (m *Mesh) PortCells() []int {
	out := make([]int, len(m.Ports))
	for i, p := range m.Ports {
		out[i] = p.Cell
	}
	return out
}

// Incidence returns the cells×links incidence matrix A of the discrete
// continuity equation: A[c][l] = +1 if link l leaves cell c, −1 if it
// enters. KCL at every cell reads  A·I + dq/dt = I_inj  (paper Eq. 11 with
// Pᵀ = A), and the branch voltage of link l is (Aᵀ·V)_l = V_from − V_to
// (paper Eq. 10 with P = Aᵀ).
func (m *Mesh) Incidence() *mat.Matrix {
	a := mat.New(len(m.Cells), len(m.Links))
	for _, l := range m.Links {
		a.Set(l.From, l.Index, 1)
		a.Set(l.To, l.Index, -1)
	}
	return a
}

// Positions maps every cell index to its position in cells, or −1 when it
// is not there.
func (m *Mesh) Positions(cells []int) []int {
	pos := make([]int, len(m.Cells))
	for i := range pos {
		pos[i] = -1
	}
	for p, c := range cells {
		pos[c] = p
	}
	return pos
}

// Bandwidth is the largest position difference across a link between two
// cells that pos places: the band of a grid Laplacian over those cells,
// which in raster order is about one grid row.
func (m *Mesh) Bandwidth(pos []int) int {
	bw := 0
	for i := range m.Links {
		pf, pt := pos[m.Links[i].From], pos[m.Links[i].To]
		if pf >= 0 && pt >= 0 {
			bw = max(bw, pf-pt, pt-pf)
		}
	}
	return bw
}

// BandLaplacian packs the link-weighted Laplacian A·diag(w)·Aᵀ, restricted
// to the given cells in their given order, in mat.NewBandCholesky's packed
// lower storage: packed[p*(bw+1)+d] holds entry (p, p−d). A link to a cell
// outside the set adds its weight to the diagonal only, which grounds the
// set there. A nil w weights every link 1. pos is Positions(cells).
func (m *Mesh) BandLaplacian(cells []int, w []float64) (packed []float64, bw int, pos []int) {
	pos = m.Positions(cells)
	bw = m.Bandwidth(pos)
	packed = make([]float64, len(cells)*(bw+1))
	for i := range m.Links {
		g := 1.0
		if w != nil {
			g = w[i]
		}
		pf, pt := pos[m.Links[i].From], pos[m.Links[i].To]
		if pf >= 0 {
			packed[pf*(bw+1)] += g
		}
		if pt >= 0 {
			packed[pt*(bw+1)] += g
		}
		if pf >= 0 && pt >= 0 {
			hi, lo := max(pf, pt), min(pf, pt)
			packed[hi*(bw+1)+(hi-lo)] -= g
		}
	}
	return packed, bw, pos
}

// Area returns the summed cell area (≈ the shape area for fine meshes).
func (m *Mesh) Area() float64 {
	var s float64
	for _, c := range m.Cells {
		s += c.Area()
	}
	return s
}

// Stats summarises the discretisation for reporting (paper Fig. 1 shows
// exactly this: the element grid of a split MCM plane).
type Stats struct {
	Cells, Links, Ports int
	Dx, Dy              float64
	CoveredArea         float64
	ShapeArea           float64
}

// Stats returns mesh statistics.
func (m *Mesh) Stats() Stats {
	return Stats{
		Cells: len(m.Cells), Links: len(m.Links), Ports: len(m.Ports),
		Dx: m.Dx, Dy: m.Dy,
		CoveredArea: m.Area(), ShapeArea: m.Shape.Area(),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("cells=%d links=%d ports=%d pitch=%.3gx%.3g mm coverage=%.1f%%",
		s.Cells, s.Links, s.Ports, s.Dx*1e3, s.Dy*1e3, 100*s.CoveredArea/s.ShapeArea)
}

// Connected reports whether every cell is reachable from cell 0 through
// links — a disconnected mesh means the shape was split by a slot narrower
// than the grid pitch, which makes the extracted circuit singular.
func (m *Mesh) Connected() bool {
	if len(m.Cells) == 0 {
		return false
	}
	adj := make([][]int, len(m.Cells))
	for _, l := range m.Links {
		adj[l.From] = append(adj[l.From], l.To)
		adj[l.To] = append(adj[l.To], l.From)
	}
	seen := make([]bool, len(m.Cells))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range adj[c] {
			if !seen[n] {
				seen[n] = true
				count++
				stack = append(stack, n)
			}
		}
	}
	return count == len(m.Cells)
}
