package extract

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"pdnsim/internal/bem"
	"pdnsim/internal/geom"
	"pdnsim/internal/greens"
	"pdnsim/internal/mesh"
)

// genShapes are the outline kinds of the generated boards: the four the
// benchmark corpora and the CLI board format describe.
var genShapes = []string{"rect", "lshape", "polygon", "holed"}

// genBoard is one generated board: a connected uniform-grid mesh with its
// ports placed, plus the stackup that its assemblies use.
type genBoard struct {
	name          string
	mesh          *mesh.Mesh
	sep, epsR, rs float64
	extra         int
}

// genBoardFor draws a board of the given outline kind whose mesh has
// cellsLo..cellsHi cells and the given port count, from the seeded stream
// r. Side lengths, notches, holes, plane separation, permittivity, sheet
// resistance and port positions are random; a draw that misses the cell
// band, disconnects the plane or puts two ports on one cell is redrawn.
func genBoardFor(r *rand.Rand, shape string, cellsLo, cellsHi, ports, extra int) (genBoard, error) {
	for attempt := 0; attempt < 200; attempt++ {
		w := 20e-3 + r.Float64()*60e-3
		h := w * (0.6 + 0.8*r.Float64())
		var sh geom.Shape
		fill := 1.0
		switch shape {
		case "rect":
			sh = geom.RectShape(0, 0, w, h)
		case "lshape":
			nw, nh := w*(0.25+0.3*r.Float64()), h*(0.25+0.3*r.Float64())
			sh = geom.LShape(w, h, nw, nh)
			fill = 1 - nw*nh/(w*h)
		case "polygon":
			// A star-shaped octagon with jittered radii around the box centre.
			cx, cy := w/2, h/2
			var pg geom.Polygon
			for v := 0; v < 8; v++ {
				ang := 2 * math.Pi * (float64(v) + 0.3*(r.Float64()-0.5)) / 8
				rad := 0.75 + 0.25*r.Float64()
				pg = append(pg, geom.Point{X: cx + rad*cx*math.Cos(ang), Y: cy + rad*cy*math.Sin(ang)})
			}
			sh = geom.Shape{Outline: pg}
			fill = 0.75
		case "holed":
			sh = geom.RectShape(0, 0, w, h)
			for j, holes := 0, 1+r.IntN(2); j < holes; j++ {
				// Holes sit in separate vertical bands, away from the edges.
				hw, hh := w*(0.08+0.1*r.Float64()), h*(0.1+0.15*r.Float64())
				x0 := w*(0.15+0.4*float64(j)) + r.Float64()*w*0.1
				y0 := h*0.2 + r.Float64()*(h*0.6-hh)
				sh.Holes = append(sh.Holes, geom.Polygon{{X: x0, Y: y0}, {X: x0 + hw, Y: y0}, {X: x0 + hw, Y: y0 + hh}, {X: x0, Y: y0 + hh}})
				fill -= hw * hh / (w * h)
			}
		default:
			return genBoard{}, fmt.Errorf("unknown outline kind %q", shape)
		}
		target := float64(cellsLo + r.IntN(cellsHi-cellsLo+1))
		fny := math.Sqrt(target / (fill * w / h))
		fnx := fny * w / h
		var m *mesh.Mesh
		for refine := 0; refine < 6; refine++ {
			nx, ny := int(math.Round(fnx)), int(math.Round(fny))
			if nx < 4 || ny < 4 {
				break
			}
			g, err := mesh.Grid(sh, nx, ny)
			if err != nil {
				break
			}
			if n := len(g.Cells); n >= cellsLo && n <= cellsHi {
				m = g
				break
			}
			s := math.Sqrt(target / float64(len(g.Cells)))
			fnx, fny = fnx*s, fny*s
		}
		if m == nil || !m.Connected() {
			continue
		}
		placed := 0
		for try := 0; try < 100*ports && placed < ports; try++ {
			p := geom.Point{X: r.Float64() * w, Y: r.Float64() * h}
			if !sh.Contains(p) {
				continue
			}
			if _, err := m.AddPort(fmt.Sprintf("P%d", placed+1), p); err == nil {
				placed++
			}
		}
		if placed < ports {
			continue
		}
		return genBoard{
			name: fmt.Sprintf("%s-%dc-%dp-%dx", shape, len(m.Cells), ports, extra),
			mesh: m,
			sep:  0.2e-3 + 0.6e-3*r.Float64(), epsR: 3.5 + 1.3*r.Float64(),
			rs:    (0.4 + 0.4*r.Float64()) * 1e-3,
			extra: extra,
		}, nil
	}
	return genBoard{}, fmt.Errorf("no %s board with %d..%d cells and %d ports", shape, cellsLo, cellsHi, ports)
}

// assemble builds the board's BEM assembly under the given operator mode.
func (g genBoard) assemble(t testing.TB, mode bem.OperatorMode) *bem.Assembly {
	t.Helper()
	k, err := greens.NewKernel(greens.OverGround, g.sep, g.epsR, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := bem.DefaultOptions()
	opts.Operator = mode
	opts.SheetResistance = g.rs
	a, err := bem.AssembleCtx(context.Background(), g.mesh, k, opts)
	if err != nil {
		t.Fatalf("%s: %v", g.name, err)
	}
	return a
}
