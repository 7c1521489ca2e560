package extract

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"strings"
	"testing"

	"pdnsim/internal/bem"
	"pdnsim/internal/diag"
	"pdnsim/internal/geom"
	"pdnsim/internal/mat"
	"pdnsim/internal/mesh"
)

// solvePathEntry returns the extraction's one "solve path" diag entry.
func solvePathEntry(t *testing.T, n *Network) diag.Diagnostic {
	t.Helper()
	var found []diag.Diagnostic
	for _, it := range n.Diag.Items() {
		if it.Check == "solve path" {
			found = append(found, it)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d \"solve path\" entries, want 1:\n%s", len(found), n.Diag.Render(true))
	}
	return found[0]
}

// rectBoard is a w×h mm rectangle on an nx×ny grid with ports at the given
// fractions of the outline, extra nodes kept beyond them: the shape of the
// ssn co-simulation boards. A port that would share a cell with an earlier
// one is dropped, as the ssn scenarios redraw it.
func rectBoard(t testing.TB, w, h float64, nx, ny int, sep float64, ports [][2]float64, extra int) genBoard {
	t.Helper()
	m, err := mesh.Grid(geom.RectShape(0, 0, w*1e-3, h*1e-3), nx, ny)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ports {
		// An error is a shared cell: the port is dropped.
		_, _ = m.AddPort(fmt.Sprintf("P%d", i+1), geom.Point{X: p[0] * w * 1e-3, Y: p[1] * h * 1e-3})
	}
	return genBoard{name: fmt.Sprintf("rect-%dx%d-%dp", nx, ny, len(m.Ports)), mesh: m, sep: sep, epsR: 4.5, rs: 0.6e-3, extra: extra}
}

// choose runs the path decision ExtractCtx makes for the board.
func choose(g genBoard, a *bem.Assembly, reg float64) solvePath {
	keep := selectNodes(a.Mesh.PortCells(), len(a.Mesh.Cells), g.extra)
	return chooseSolvePath(a, reg, keep, mat.Complement(len(a.Mesh.Cells), keep))
}

// TestSolvePathChoice pins the cost model's decisions at the ends of its
// range and the rules that override it.
func TestSolvePathChoice(t *testing.T) {
	r := rand.New(rand.NewPCG(28, 1))

	// ssn co-simulation boards: 40–80 mm rectangles on 8–10 × 6–8 grids
	// (48–80 cells) with a VRM, one or two chips and up to 8 decaps, and 3
	// extra nodes. The operator path saves at most about a millisecond
	// there; the dense reduction keeps their networks as they were.
	for i := 0; i < 12; i++ {
		w := 40 + 40*r.Float64()
		h := w * (0.6 + 0.4*r.Float64())
		nx, ny := 8+r.IntN(3), 6+r.IntN(3)
		var ports [][2]float64
		for len(ports) < 2+i%10 {
			ports = append(ports, [2]float64{0.05 + 0.9*r.Float64(), 0.05 + 0.9*r.Float64()})
		}
		g := rectBoard(t, w, h, nx, ny, (0.2+0.4*r.Float64())*1e-3, ports, 3)
		if p := choose(g, g.assemble(t, bem.OpAuto), 0); p.operator {
			t.Errorf("ssn-sized board %d×%d, %d ports: auto took the operator path (predicted %.3g vs dense %.3g ms)",
				nx, ny, len(g.mesh.Ports), p.op/1e6, p.dense/1e6)
		}
	}

	// Many kept nodes on a small board: 132 cells, 40 extra nodes.
	g := rectBoard(t, 50, 40, 12, 11, 0.4e-3, [][2]float64{{0.1, 0.1}, {0.8, 0.5}, {0.3, 0.9}}, 40)
	a := g.assemble(t, bem.OpAuto)
	if p := choose(g, a, 0); p.operator {
		t.Errorf("132 cells, 43 kept nodes: auto took the operator path (predicted %.3g vs dense %.3g ms)", p.op/1e6, p.dense/1e6)
	}
	// Operator: toeplitz overrides the model on the same board.
	if p := choose(g, g.assemble(t, bem.OpToeplitz), 0); !p.operator || p.why != "Operator: toeplitz" {
		t.Errorf("Operator: toeplitz on a board the model keeps dense: %+v", p)
	}

	// extract-operator boards: 1024–1250 cells, 2–6 ports, 8–16 extra nodes
	// (at most 22 kept), every outline kind, and the stackup corners.
	for i := 0; i < 8; i++ {
		ports, extra := 2+i%5, 8+(i*3)%9
		g, err := genBoardFor(r, genShapes[i%len(genShapes)], 1024, 1250, ports, extra)
		if err != nil {
			t.Fatal(err)
		}
		g.sep = []float64{0.2e-3, 0.8e-3}[i%2]
		a := g.assemble(t, bem.OpAuto)
		if p := choose(g, a, 0); !p.operator || p.why != "cost model" {
			t.Errorf("%s: auto kept the dense path (predicted operator %.3g vs dense %.3g ms)", g.name, p.op/1e6, p.dense/1e6)
		}
		// Regularize pins the dense path whatever the model predicts.
		if p := choose(g, a, 1e-9); p.operator {
			t.Errorf("%s: Regularize > 0 took the operator path", g.name)
		}
		if i == 0 {
			// Operator: dense overrides the model: no operators are built.
			if p := choose(g, g.assemble(t, bem.OpDense), 0); p.operator || p.why != "no operators, dense assembly" {
				t.Errorf("%s: Operator: dense chose %+v", g.name, p)
			}
		}
	}

	// A mesh that fails the uniform-grid check takes the direct fill, so
	// the board stays dense even where its uniform twin goes operator.
	g = rectBoard(t, 50, 40, 16, 16, 0.4e-3, [][2]float64{{0.1, 0.1}, {0.8, 0.5}}, 3)
	if p := choose(g, g.assemble(t, bem.OpAuto), 0); !p.operator {
		t.Fatalf("uniform 256-cell board with 5 kept nodes: auto kept the dense path (predicted %.3g vs %.3g ms)", p.op/1e6, p.dense/1e6)
	}
	g.mesh.Cells[17].Rect.X1 += 0.1 * (g.mesh.Cells[17].Rect.X1 - g.mesh.Cells[17].Rect.X0)
	a = g.assemble(t, bem.OpAuto)
	if a.Opts.Operator != bem.OpDirect {
		t.Fatalf("widened cell passed the uniform-grid check (mode %v)", a.Opts.Operator)
	}
	if p := choose(g, a, 0); p.operator || p.why != "no operators, direct assembly" {
		t.Errorf("non-uniform mesh chose %+v", p)
	}
}

// TestSolvePathRecorded: every extraction leaves one "solve path" entry
// naming the path it took, with both predicted costs, the cell and kept-node
// counts and the padded FFT grids, and an operator failure that falls back
// to dense is recorded as dense.
func TestSolvePathRecorded(t *testing.T) {
	for _, c := range []struct {
		mode bem.OperatorMode
		want string
	}{
		{bem.OpToeplitz, "operator (Operator: toeplitz): predicted operator "},
		{bem.OpDense, "dense (no operators, dense assembly): predicted operator n/a vs dense "},
		{bem.OpAuto, "operator (cost model): "},
	} {
		n, err := ExtractCtx(context.Background(), buildPlaneOp(t, 16, c.mode), Options{ExtraNodes: 3})
		if err != nil {
			t.Fatal(err)
		}
		e := solvePathEntry(t, n)
		if e.Severity != diag.Info || !strings.HasPrefix(e.Message, c.want) || !strings.Contains(e.Message, "256 cells, 6 kept nodes") {
			t.Errorf("%v: entry %s", c.mode, e)
		}
		if hasOps := c.mode != bem.OpDense; hasOps != (e.Value > 0) || e.Limit <= 0 ||
			hasOps != strings.Contains(e.Message, "P 32×32, Lx 32×32, Ly 32×32") {
			t.Errorf("%v: predicted costs %g / %g ms, message %q", c.mode, e.Value, e.Limit, e.Message)
		}
	}

	// Break the capacitance operator (P := −I): the operator reduction's
	// CG breaks down, the extraction falls back to dense, and the entry
	// names the dense path.
	a := buildPlaneOp(t, 16, bem.OpToeplitz)
	coords := make([][2]int, len(a.Mesh.Cells))
	for i, c := range a.Mesh.Cells {
		coords[i] = [2]int{c.IX, c.IY}
	}
	table := make([]float64, 16*16)
	table[0] = -1
	neg, err := mat.NewToeplitzOp(16, 16, table, coords)
	if err != nil {
		t.Fatal(err)
	}
	a.POp = neg
	n, err := ExtractCtx(context.Background(), a, Options{ExtraNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	fellBack := false
	for _, it := range n.Diag.Items() {
		fellBack = fellBack || it.Check == "operator path"
	}
	if e := solvePathEntry(t, n); !fellBack || !strings.HasPrefix(e.Message, "dense (operator path failed): ") {
		t.Errorf("fallback (warning recorded: %v) left entry %s", fellBack, e)
	}
}

// TestGeneratedBoardsPathsAgree is the dense ≡ operator agreement contract
// over generated boards of the range the cost model now routes to the
// operator path: 100–700 cells, every outline kind, 2–6 ports and 4–40
// extra nodes. Γ, C, the total capacitance and the port impedance matrix
// swept through the boards' first resonances agree within
// operatorAgreeRelTol; G_red is bitwise equal, since both paths reduce it
// with the same banded reduceConductance.
func TestGeneratedBoardsPathsAgree(t *testing.T) {
	r := rand.New(rand.NewPCG(28, 2))
	const boards = 20
	for i := 0; i < boards; i++ {
		lo := int(100 * math.Pow(7, float64(i)/boards))
		shape := genShapes[i%len(genShapes)]
		g, err := genBoardFor(r, shape, lo, lo+lo/10, 2+r.IntN(5), 4+r.IntN(37))
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{ExtraNodes: g.extra}
		nd, err := ExtractCtx(context.Background(), g.assemble(t, bem.OpDense), opts)
		if err != nil {
			t.Fatalf("%s dense: %v", g.name, err)
		}
		no, err := ExtractCtx(context.Background(), g.assemble(t, bem.OpToeplitz), opts)
		if err != nil {
			t.Fatalf("%s operator: %v", g.name, err)
		}
		if e := solvePathEntry(t, no); !strings.HasPrefix(e.Message, "operator") {
			t.Fatalf("%s: forced operator path not taken: %s", g.name, e)
		}
		t.Run(g.name, func(t *testing.T) {
			assertMatAgree(t, "Gamma", no.Gamma.Data, nd.Gamma.Data, operatorAgreeRelTol)
			assertMatAgree(t, "C", no.C.Data, nd.C.Data, operatorAgreeRelTol)
			for k := range nd.G.Data {
				if no.G.Data[k] != nd.G.Data[k] {
					t.Fatalf("G_red entry %d: operator %.17g, dense %.17g; both paths share one reduction", k, no.G.Data[k], nd.G.Data[k])
				}
			}
			if tc, td := no.TotalCapacitance(), nd.TotalCapacitance(); math.Abs(tc-td) > operatorAgreeRelTol*math.Abs(td) {
				t.Errorf("total capacitance: operator %g vs dense %g", tc, td)
			}
			for _, f := range []float64{1e6, 1e8, 3e8, 1e9, 2e9} {
				zo, err := no.PortZCtx(context.Background(), 2*math.Pi*f)
				if err != nil {
					t.Fatal(err)
				}
				zd, err := nd.PortZCtx(context.Background(), 2*math.Pi*f)
				if err != nil {
					t.Fatal(err)
				}
				var scale, dev float64
				for k := range zd.Data {
					scale = math.Max(scale, cmplx.Abs(zd.Data[k]))
					dev = math.Max(dev, cmplx.Abs(zo.Data[k]-zd.Data[k]))
				}
				if dev > operatorAgreeRelTol*scale {
					t.Errorf("port Z at %g Hz: operator and dense differ by %.3g of the largest entry", f, dev/scale)
				}
			}
		})
	}
}
