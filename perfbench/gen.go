package main

// Seeded input generators. Every workload draws its inputs from a fixed
// corpus — boards and SSN scenarios generated once from a corpus seed — so
// that each input has a committed golden output. The run seed picks the
// order in which a run visits the corpus: the same seed gives byte-identical
// inputs, and different seeds give different runs over the same cost profile.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"

	"pdnsim/internal/core"
	"pdnsim/internal/geom"
	"pdnsim/internal/mesh"
)

// operatorPathMinCells mirrors the extraction's size gate for the operator
// (FFT-Toeplitz + CG) reduction path: extract-dense boards sit below it,
// extract-operator boards at or above it.
const operatorPathMinCells = 1024

// boardClass bounds the boards of one workload.
type boardClass struct {
	name                 string
	minCells, maxCells   int
	minPorts, maxPorts   int
	minExtra, maxExtra   int
	strata, perStratum   int    // corpus layout: strata of increasing cost
	nodeStrata           bool   // strata step the kept node count instead of the cell count
	epsVariants          bool   // a stratum's boards share one layout and differ only in εr
	corpusSeed           uint64 // fixed: the corpus, and so its goldens, never depends on the run seed
	shapes               []string
	minSideMM, maxSideMM float64
}

// The extract-* corpora stratify by layout: each stratum is one layout, and
// its boards differ only in the substrate permittivity, which scales P on
// the over-ground kernel and leaves every factorisation and CG iteration
// count unchanged. A board's cost follows its outline, notch or hole sizes
// and port and node placement as much as its cell count — on the operator
// path, boards of one cell band differ tenfold — so only a fixed layout per
// stratum gives every seed the same cost mix and a steady median. Every
// board still has its own fingerprint, so every job misses the cache; a
// cache keyed on layout alone would warm these workloads.
var (
	denseClass = boardClass{
		name: "extract-dense", minCells: 150, maxCells: 700,
		minPorts: 2, maxPorts: 6, minExtra: 8, maxExtra: 16,
		strata: 34, perStratum: 8, epsVariants: true, corpusSeed: 0xd15e,
		shapes:    []string{"rect", "lshape", "polygon", "holed"},
		minSideMM: 20, maxSideMM: 80,
	}
	operatorClass = boardClass{
		name: "extract-operator", minCells: operatorPathMinCells, maxCells: 1250,
		minPorts: 2, maxPorts: 6, minExtra: 8, maxExtra: 16,
		strata: 20, perStratum: 4, epsVariants: true, corpusSeed: 0x0fe7,
		shapes:    []string{"rect", "lshape", "polygon", "holed"},
		minSideMM: 30, maxSideMM: 90,
	}
	sweepClass = boardClass{
		name: "sweep-warm", minCells: 120, maxCells: 260,
		minPorts: 2, maxPorts: 4, minExtra: 10, maxExtra: 40,
		strata: sweepBoards, perStratum: clients, corpusSeed: 0x5eef, nodeStrata: true,
		shapes:    []string{"rect", "lshape", "polygon", "holed"},
		minSideMM: 20, maxSideMM: 60,
	}
)

// corpusSize is the number of boards in the class's corpus.
func (c boardClass) corpusSize() int { return c.strata * c.perStratum }

// cellBand is how far a board's cell count may sit from its stratum's
// target.
const cellBand = 0.03

// corpusBoard generates board i of the class's corpus. Board i belongs to
// stratum i / perStratum. Strata fix what sets a board's cost — its cell
// count, or, for swept boards, whose per-point cost is a solve over the kept
// nodes, the node and port counts, or, with epsVariants, the whole layout —
// so a run that cycles through strata sees the same cost mix for every seed;
// otherwise shape, stackup and port placement vary freely within a stratum.
func (c boardClass) corpusBoard(i int) (core.BoardSpec, error) {
	k := i / c.perStratum
	layout, shape := i, c.shapes[i%len(c.shapes)]
	if c.epsVariants {
		layout, shape = k, c.shapes[k%len(c.shapes)]
	}
	r := rand.New(rand.NewPCG(c.corpusSeed, uint64(layout)))
	frac := float64(k) / float64(max(c.strata-1, 1))
	lo, hi := c.minCells, c.maxCells
	if !c.nodeStrata {
		// Geometric targets: the dense reduction costs ~cells³, so evenly
		// spaced logarithms give evenly spaced cost strata.
		t := float64(c.minCells) * math.Pow(float64(c.maxCells)/float64(c.minCells), frac)
		lo, hi = max(c.minCells, int(t*(1-cellBand))), min(c.maxCells, int(t*(1+cellBand)))
	}
	name := fmt.Sprintf("%s-%03d", c.name, i)
	for attempt := 0; attempt < 500; attempt++ {
		extra := c.minExtra + r.IntN(c.maxExtra-c.minExtra+1)
		ports := c.minPorts + r.IntN(c.maxPorts-c.minPorts+1)
		if c.nodeStrata {
			extra = c.minExtra + int(math.Round(frac*float64(c.maxExtra-c.minExtra)))
			ports = c.minPorts + k%(c.maxPorts-c.minPorts+1)
		}
		target := lo + r.IntN(hi-lo+1)
		if b, ok := c.tryBoard(r, name, shape, target, lo, hi, ports); ok {
			b.ExtraNodes = extra
			if c.epsVariants {
				b.EpsR = round2(3.5 + 1.3*float64(i%c.perStratum)/float64(max(c.perStratum-1, 1)))
			}
			return b, nil
		}
	}
	return core.BoardSpec{}, fmt.Errorf("perfbench: no %s board %d with %d..%d cells", c.name, i, lo, hi)
}

// round2 rounds a millimetre coordinate to 10 µm so generated JSON stays
// short and exactly reproducible.
func round2(x float64) float64 { return math.Round(x*100) / 100 }

// tryBoard draws one candidate board and keeps it when its mesh lands in
// [lo, hi] cells (and inside the class bounds), is connected, and carries
// every port on its own cell.
func (c boardClass) tryBoard(r *rand.Rand, name, shape string, target, lo, hi, ports int) (core.BoardSpec, bool) {
	w := round2(c.minSideMM + r.Float64()*(c.maxSideMM-c.minSideMM))
	h := round2(w * (0.6 + 0.8*r.Float64()))
	b := core.BoardSpec{
		Name:       name,
		PlaneSepMM: round2(0.2 + 0.6*r.Float64()),
		EpsR:       round2(3.5 + 1.3*r.Float64()),
		SheetRes:   math.Round((0.4+0.4*r.Float64())*1e6) / 1e9,
	}
	fill := 1.0
	switch shape {
	case "rect":
		b.Shape = core.ShapeSpec{Type: "rect", W: w, H: h}
	case "lshape":
		nw, nh := round2(w*(0.25+0.3*r.Float64())), round2(h*(0.25+0.3*r.Float64()))
		b.Shape = core.ShapeSpec{Type: "lshape", W: w, H: h, NotchW: nw, NotchH: nh}
		fill = 1 - nw*nh/(w*h)
	case "polygon":
		// A star-shaped octagon with jittered radii around the box centre.
		cx, cy := w/2, h/2
		var pts [][2]float64
		for v := 0; v < 8; v++ {
			ang := 2 * math.Pi * (float64(v) + 0.3*(r.Float64()-0.5)) / 8
			rad := 0.75 + 0.25*r.Float64()
			pts = append(pts, [2]float64{round2(cx + rad*cx*math.Cos(ang)), round2(cy + rad*cy*math.Sin(ang))})
		}
		b.Shape = core.ShapeSpec{Type: "polygon", Points: pts}
		fill = 0.75
	case "holed":
		b.Shape = core.ShapeSpec{Type: "rect", W: w, H: h}
		holes := 1 + r.IntN(2)
		for j := 0; j < holes; j++ {
			// Holes sit in separate vertical bands, away from the edges, so
			// the plane stays connected.
			hw, hh := round2(w*(0.08+0.1*r.Float64())), round2(h*(0.1+0.15*r.Float64()))
			x0 := round2(w*(0.15+0.4*float64(j)) + r.Float64()*w*0.1)
			y0 := round2(h*0.2 + r.Float64()*(h*0.6-hh))
			b.Shape.Holes = append(b.Shape.Holes, [][2]float64{{x0, y0}, {x0 + hw, y0}, {x0 + hw, y0 + hh}, {x0, y0 + hh}})
			fill -= hw * hh / (w * h)
		}
	}
	// Size the grid from the estimated fill, then refine it from the actual
	// cell count until it lands in [lo, hi].
	sh := b.BuildShape()
	aspect := w / h
	fny := math.Sqrt(float64(target) / (fill * aspect))
	fnx := fny * aspect
	var m *mesh.Mesh
	for refine := 0; ; refine++ {
		nx, ny := int(math.Round(fnx)), int(math.Round(fny))
		if nx < 4 || ny < 4 || refine == 6 {
			return b, false
		}
		var err error
		if m, err = mesh.Grid(sh, nx, ny); err != nil {
			return b, false
		}
		n := len(m.Cells)
		if n >= lo && n <= hi {
			b.MeshNx, b.MeshNy = nx, ny
			break
		}
		scale := math.Sqrt(float64(target) / float64(n))
		fnx, fny = fnx*scale, fny*scale
	}
	if !m.Connected() {
		return b, false
	}
	for p := 0; p < ports; p++ {
		placed := false
		for try := 0; try < 100 && !placed; try++ {
			x, y := round2(r.Float64()*w), round2(r.Float64()*h)
			pt := geom.Point{X: x * 1e-3, Y: y * 1e-3}
			if !sh.Contains(pt) {
				continue
			}
			name := fmt.Sprintf("P%d", p+1)
			if _, err := m.AddPort(name, pt); err != nil {
				continue
			}
			b.Ports = append(b.Ports, core.PortSpec{Name: name, X: x, Y: y})
			placed = true
		}
		if !placed {
			return b, false
		}
	}
	return b, b.Validate() == nil
}

// corpus generates the whole corpus of a class.
func (c boardClass) corpus() ([]core.BoardSpec, error) {
	out := make([]core.BoardSpec, c.corpusSize())
	for i := range out {
		b, err := c.corpusBoard(i)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// runOrder returns the order in which a run with the given seed visits a
// corpus of strata×perStratum entries: inputs come in groups of `clients`
// from one stratum (one input per closed-loop caller), the groups cycle
// through the strata, and each stratum is visited in a seed-shuffled order
// without repeats, so every input of a run is distinct. perStratum is a
// multiple of clients.
//
// Each cycle visits the strata in van der Corput order (for 8 strata: 0, 4,
// 2, 6, 1, 5, 3, 7), so every prefix of a cycle spreads evenly over the
// cost range. The partial cycle a window ends in then holds a balanced mix
// with no gap at any cost level, and the median and tail do not jump
// between cost levels with the op count.
func runOrder(seed uint64, strata, perStratum int) []int {
	r := rand.New(rand.NewPCG(seed, 0x0de))
	perms := make([][]int, strata)
	for k := range perms {
		perms[k] = r.Perm(perStratum)
	}
	cycle := strataCycle(strata)
	out := make([]int, 0, strata*perStratum)
	for j := 0; j+clients <= perStratum; j += clients {
		for _, k := range cycle {
			for c := 0; c < clients; c++ {
				out = append(out, k*perStratum+perms[k][j+c])
			}
		}
	}
	return out
}

// strataCycle lists 0..n−1 in van der Corput order: stratum ⌊v·n⌋ for the
// base-2 radical inverses v of 0, 1, 2, …, each stratum at its first hit.
func strataCycle(n int) []int {
	seen := make([]bool, n)
	cycle := make([]int, 0, n)
	for m := uint32(0); len(cycle) < n; m++ {
		v := float64(bits.Reverse32(m)) / (1 << 32)
		if k := int(v * float64(n)); !seen[k] {
			seen[k] = true
			cycle = append(cycle, k)
		}
	}
	return cycle
}

// sweepSpec is one sweep job's frequency plan.
type sweepSpec struct {
	Board int     `json:"board"` // corpus index of the swept board
	FMin  float64 `json:"fmin_hz"`
	FMax  float64 `json:"fmax_hz"`
	NF    int     `json:"nf"`
}

// sweepBoards is how many corpus boards sweep-warm pushes through the daemon
// at set-up.
const sweepBoards = 8

// sweepPlan returns the run's warm boards (corpus indices, one drawn from
// each stratum) and the first n sweep jobs against them. Jobs come in groups
// of `clients` that share a board and a point-count level, one per caller.
// Frequencies are continuous draws, so concurrent jobs never share a plan.
func sweepPlan(seed uint64, n int) (boards []int, jobs []sweepSpec) {
	r := rand.New(rand.NewPCG(seed, 0x5ee9))
	for k := 0; k < sweepBoards; k++ {
		boards = append(boards, k*sweepClass.perStratum+r.IntN(sweepClass.perStratum))
	}
	off := r.IntN(len(sweepPoints))
	for j := 0; j < n; j++ {
		m := j / clients
		jobs = append(jobs, sweepSpec{
			Board: boards[m%sweepBoards],
			FMin:  math.Round((1 + 49*r.Float64()) * 1e6),
			FMax:  math.Round((1 + 4*r.Float64()) * 1e9),
			NF:    sweepPoints[(m+off)%len(sweepPoints)] + r.IntN(10),
		})
	}
	return boards, jobs
}

// sweepPoints are the point-count levels sweep jobs cycle through (plus a
// small seeded jitter), covering 100–400 points per job evenly. Five levels
// against eight boards means every board meets every level.
var sweepPoints = []int{100, 172, 245, 318, 391}

// ssnScenario is one SSN co-simulation input; lengths in millimetres.
type ssnScenario struct {
	Name       string       `json:"name"`
	WMM        float64      `json:"w_mm"`
	HMM        float64      `json:"h_mm"`
	PlaneSepMM float64      `json:"plane_sep_mm"`
	MeshNx     int          `json:"mesh_nx"`
	MeshNy     int          `json:"mesh_ny"`
	ExtraNodes int          `json:"extra_nodes"`
	VRM        [2]float64   `json:"vrm_mm"`
	Chips      []ssnChip    `json:"chips"`
	Decaps     [][2]float64 `json:"decaps_mm"`
}

// ssnChip is one switching component of a scenario.
type ssnChip struct {
	Name      string     `json:"name"`
	At        [2]float64 `json:"at_mm"`
	Kind      string     `json:"kind"` // "cmos" or "ibis"
	Drivers   int        `json:"drivers"`
	Switching int        `json:"switching"`
	DelayPS   float64    `json:"delay_ps"`
}

// Fixed transient window of every ssn-cosim op: long enough for the
// switching edge, the rail response and its ring-down.
const (
	ssnDt    = 50e-12
	ssnTstop = 6e-9
)

// ssnDesigns fixes the cost-determining parameters of each scenario stratum
// — chips, their driver kinds and switching counts, decaps — so every seed
// sees the same cost mix: every decap adds a plane port, the Kron-reduced
// plane's mutual branches grow with the square of the port count, and the
// resulting MNA size and the switching drivers set the cost of the Newton
// re-factorisations. Board size, stackup, placement and timing vary within
// a stratum.
var ssnDesigns = []struct {
	kinds     []string // per chip: "cmos" or "ibis"
	switching []int    // per chip
	decaps    int
}{
	{[]string{"cmos"}, []int{4}, 0},
	{[]string{"ibis"}, []int{16}, 1},
	{[]string{"cmos", "ibis"}, []int{4, 4}, 2},
	{[]string{"cmos"}, []int{12}, 3},
	{[]string{"ibis", "ibis"}, []int{3, 3}, 4},
	{[]string{"ibis"}, []int{10}, 5},
	{[]string{"cmos", "cmos"}, []int{8, 8}, 6},
	{[]string{"cmos"}, []int{8}, 8},
}

// The scenario corpus: one stratum per design.
const (
	ssnCorpusSeed = 0x55e
	ssnPerStratum = 16
)

var ssnStrata = len(ssnDesigns)

// ssnCorpusScenario generates scenario i of the corpus.
func ssnCorpusScenario(i int) ssnScenario {
	r := rand.New(rand.NewPCG(ssnCorpusSeed, uint64(i)))
	d := ssnDesigns[i/ssnPerStratum]
	w := round2(40 + 40*r.Float64())
	h := round2(w * (0.6 + 0.4*r.Float64()))
	sc := ssnScenario{
		Name: fmt.Sprintf("ssn-cosim-%03d", i), WMM: w, HMM: h,
		PlaneSepMM: round2(0.2 + 0.4*r.Float64()),
		MeshNx:     8 + r.IntN(3), MeshNy: 6 + r.IntN(3),
		ExtraNodes: 3,
		VRM:        [2]float64{round2(0.05 * w), round2(0.05 * h)},
	}
	for c, kind := range d.kinds {
		sw := d.switching[c]
		sc.Chips = append(sc.Chips, ssnChip{
			Name: fmt.Sprintf("U%d", c+1),
			At:   [2]float64{round2(w * (0.5 + 0.35*float64(c))), round2(h * (0.4 + 0.3*r.Float64()))},
			Kind: kind, Drivers: sw + r.IntN(4), Switching: sw,
			DelayPS: math.Round(800 + 400*r.Float64()),
		})
	}
	// Every plane port (VRM, chips, decaps) needs a cell of its own on the
	// scenario's mesh: redraw a decap that would share one.
	m, err := mesh.Grid(geom.RectShape(0, 0, w*1e-3, h*1e-3), sc.MeshNx, sc.MeshNy)
	if err != nil {
		panic(err) // a positive rectangle always meshes
	}
	taken := map[int]bool{m.NearestCell(mmPt(sc.VRM)): true}
	for _, c := range sc.Chips {
		taken[m.NearestCell(mmPt(c.At))] = true
	}
	for n := 0; n < d.decaps; n++ {
		for {
			at := [2]float64{round2(w * (0.1 + 0.8*r.Float64())), round2(h * (0.1 + 0.8*r.Float64()))}
			if cell := m.NearestCell(mmPt(at)); !taken[cell] {
				taken[cell] = true
				sc.Decaps = append(sc.Decaps, at)
				break
			}
		}
	}
	return sc
}

// ssnRunOrder is the run's scenario order (stratified like the boards).
func ssnRunOrder(seed uint64) []int { return runOrder(seed, ssnStrata, ssnPerStratum) }

// inputBytes renders any generated input canonically; the generator tests
// compare these bytes across calls with the same seed.
func inputBytes(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	return b
}
