// Package bem assembles the boundary-element matrices of the paper's §3.2.
// After the quasi-static approximation (§4.1) the discretised mixed-potential
// integral equations become
//
//	(R + jωL)·I − Aᵀ·V = 0        (branch equations, paper Eq. 10)
//	A·I + jωC·V        = J_inj    (continuity/KCL,   paper Eq. 11)
//
// with A the cell/link incidence operator from package mesh, and:
//
//   - P  — potential-coefficient matrix over cells (1/F). V = P·Q; the
//     Maxwell capacitance matrix is C = P⁻¹.
//   - L  — partial-inductance matrix over links (H), dense within each
//     current direction and zero between orthogonal directions.
//   - R  — surface-resistance of each link (Ω), from the sheet resistances
//     of the plane and its return path (paper Eq. 13: Zs is the
//     low-frequency limit of the loss).
//
// Matrix entries are panel integrals of the layered Green's functions from
// package greens. Two testing schemes are supported (paper §3.2 discusses
// both): collocation (point matching, fast) and Galerkin (same basis as
// testing, more accurate and stable, more quadrature work). On the uniform
// grids produced by mesh.Grid the kernels are translation invariant, so P
// and each same-direction L block are functions of the integer grid offset
// alone. One flat offset table per block holds one panel integral per
// realised offset (Toeplitz caching: O(N) kernel evaluations instead of
// O(N²)); it backs the block's FFT-applied ToeplitzOp, and the dense P and L
// are copied from the tables only on demand (Assembly.P, Assembly.L), so
// the operator path never forms them. Options.Operator is the one knob that
// selects the path, and OpDirect is the reference fill that integrates
// every entry into the dense matrices during assembly.
package bem

import (
	"context"

	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"pdnsim/internal/diag"
	"pdnsim/internal/greens"
	"pdnsim/internal/mat"
	"pdnsim/internal/mesh"
	"pdnsim/internal/simerr"
)

// TestingScheme selects how the integral equations are tested (sampled).
type TestingScheme int

const (
	// Collocation point-matches at element centres (fast, paper's "point
	// matching method").
	Collocation TestingScheme = iota
	// Galerkin tests with the basis functions themselves (more accurate
	// and stable, paper's "Galerkin's method").
	Galerkin
)

func (s TestingScheme) String() string {
	if s == Collocation {
		return "collocation"
	}
	return "galerkin"
}

// OperatorMode selects the assembly path: whether P and L come from the
// grid-offset tables, and whether those tables are also emitted as
// structure-preserving Toeplitz operators beside the on-demand dense
// matrices.
type OperatorMode int

const (
	// OpAuto fills from the offset tables and emits ToeplitzOp operators
	// whenever the mesh passes the uniform-grid validation; a mesh that fails
	// it takes the direct fill (Opts.Operator becomes OpDirect) with a
	// "grid uniformity" diag warning. The default.
	OpAuto OperatorMode = iota
	// OpDense fills from the offset tables like OpAuto but never emits
	// operators: downstream solves always densify.
	OpDense
	// OpToeplitz requires operators: a mesh that fails the uniform-grid
	// validation is an error instead of a direct-fill fallback.
	OpToeplitz
	// OpDirect is the reference fill: every entry is its own panel integral,
	// with no offset table and no operators. It needs no uniform grid.
	OpDirect
)

func (m OperatorMode) String() string {
	switch m {
	case OpDense:
		return "dense"
	case OpToeplitz:
		return "toeplitz"
	case OpDirect:
		return "direct"
	default:
		return "auto"
	}
}

// Options configure an assembly.
type Options struct {
	Testing    TestingScheme
	GaussOrder int // Galerkin quadrature order per axis (default 2)

	// Operator selects the fill path and the emission of FFT-applicable
	// ToeplitzOp operators for P and the per-direction L blocks (the
	// superlinear solve path in internal/extract); see OperatorMode.
	Operator OperatorMode

	// SheetResistance is the resistance per square of the meshed plane (Ω/sq).
	SheetResistance float64
	// ReturnSheetResistance is the resistance per square of the return
	// plane, added in series with the forward path (Ω/sq).
	ReturnSheetResistance float64
}

// DefaultOptions returns the recommended assembly configuration.
func DefaultOptions() Options {
	return Options{Testing: Collocation, GaussOrder: 2}
}

// Assembly holds the assembled BEM operators for one plane.
type Assembly struct {
	Mesh   *mesh.Mesh
	Kernel *greens.Kernel
	Opts   Options

	R []float64 // per-link series resistance (Ω)

	// POp, when non-nil, is the block-Toeplitz form of P: the same matrix as
	// an O(n log n) operator (emitted on validated uniform grids unless
	// Opts.Operator is OpDense). LOps likewise holds the per-direction
	// partial-inductance blocks, indexed by mesh.Direction and ordered by
	// link index within each direction; an entry is nil when the mesh has no
	// links in that direction.
	POp  *mat.ToeplitzOp
	LOps [2]*mat.ToeplitzOp

	// Diag records assembly-stage warnings: currently the uniform-grid
	// fallback (a non-uniform mesh under OpAuto or OpDense).
	Diag *diag.Diagnostics

	// KernelEvals counts distinct panel-integral evaluations performed
	// (used by the Toeplitz ablation benchmark). Under cancellation it
	// counts only evaluations that actually completed.
	KernelEvals int

	// gridNX, gridNY are the validated uniform-grid dimensions, which size
	// the offset tables (0 on the OpDirect path).
	gridNX, gridNY int

	// p and l are the dense P and L behind the P and L methods.
	p, l denseBlocks
}

// P returns the cells×cells potential-coefficient matrix (1/F). Off the
// OpDirect path it is copied from the offset table on the first call and
// cached; only the dense reductions call it, so the operator path never
// builds it. Safe for concurrent use.
func (a *Assembly) P() *mat.Matrix { return a.p.matrix() }

// L returns the links×links partial-inductance matrix (H), built on the
// first call like P.
func (a *Assembly) L() *mat.Matrix { return a.l.matrix() }

// denseBlocks is one of the dense matrices, materialised on first use: each
// group's block is copied from its offset table and entries between groups
// are zero. The copy is exactly symmetric, so unlike the direct fill it
// needs no Symmetrize (which would leave every entry as it is). The
// OpDirect path sets m during assembly instead.
type denseBlocks struct {
	once   sync.Once
	n, nx  int           // matrix order; grid width indexing the tables
	groups []offsetGroup // indexed like tables
	tables [][]float64   // per group: its offset table, nil if it has no unknowns
	m      *mat.Matrix
}

func (d *denseBlocks) matrix() *mat.Matrix {
	d.once.Do(func() {
		if d.m != nil {
			return
		}
		m := mat.New(d.n, d.n)
		for gi, table := range d.tables {
			g := d.groups[gi]
			for p, cp := range g.coords {
				row := m.Data[g.idx[p]*d.n:]
				for q, cq := range g.coords {
					row[g.idx[q]] = table[abs(cp[1]-cq[1])*d.nx+abs(cp[0]-cq[0])]
				}
			}
		}
		d.m, d.groups, d.tables = m, nil, nil
	})
	return d.m
}

// AssembleCtx assembles P, L and R for the given mesh and Green's function
// kernel: the offset tables and Toeplitz operators on a validated uniform
// grid (dense P and L follow on demand), the dense matrices under OpDirect.
// The panel-integral loops (the dominant cost on fine meshes) check ctx
// periodically and abandon the run with a simerr.ErrCancelled-class
// error when it is done. Internal panics from malformed meshes surface as
// simerr.ErrBadInput instead of crashing.
func AssembleCtx(ctx context.Context, m *mesh.Mesh, k *greens.Kernel, opts Options) (a *Assembly, err error) {
	defer simerr.RecoverInto(&err, "bem: assemble")
	if m == nil || k == nil {
		return nil, simerr.BadInput("bem: assemble", "nil mesh or kernel")
	}
	if len(m.Cells) == 0 {
		return nil, simerr.BadInput("bem: assemble", "empty mesh")
	}
	if opts.GaussOrder <= 0 {
		opts.GaussOrder = 2
	}
	if opts.GaussOrder > 5 {
		return nil, simerr.BadInput("bem: assemble", "Gauss order %d not supported (1..5)", opts.GaussOrder)
	}
	if opts.SheetResistance < 0 || opts.ReturnSheetResistance < 0 ||
		math.IsNaN(opts.SheetResistance) || math.IsNaN(opts.ReturnSheetResistance) {
		return nil, simerr.BadInput("bem: assemble", "sheet resistances must be non-negative, got %g and %g",
			opts.SheetResistance, opts.ReturnSheetResistance)
	}
	a = &Assembly{Mesh: m, Kernel: k, Opts: opts, Diag: diag.New()}
	if a.Opts.Operator != OpDirect {
		// The offset tables (and the ToeplitzOps built from them) assume the
		// kernel is translation invariant across cells, which holds only on a
		// uniform grid — validate instead of silently filling a wrong matrix.
		nx, ny, dev, err := uniformGrid(m)
		if err != nil {
			if a.Opts.Operator == OpToeplitz {
				return nil, simerr.BadInput("bem: assemble", "Operator: toeplitz requires a uniform grid: %v", err)
			}
			a.Opts.Operator = OpDirect
			a.Diag.Warnf("bem", "grid uniformity", dev, gridUniformRelTol, true,
				"Toeplitz offset tables disabled, direct fill used: %v", err)
		} else {
			a.gridNX, a.gridNY = nx, ny
		}
	}
	if err := a.assembleP(ctx); err != nil {
		return nil, err
	}
	if err := a.assembleL(ctx); err != nil {
		return nil, err
	}
	a.assembleR()
	return a, nil
}

// scalarEntryNoCount returns the potential at the centre (or Galerkin
// average) of cell i due to a unit total charge spread uniformly on cell j.
// Callers account for KernelEvals themselves (the hot paths run this across
// goroutines).
func (a *Assembly) scalarEntryNoCount(ci, cj mesh.Cell) float64 {
	var v float64
	if a.Opts.Testing == Galerkin {
		v = a.Kernel.ScalarPanelGalerkin(cj.Rect, ci.Rect, a.Opts.GaussOrder)
	} else {
		v = a.Kernel.ScalarPanel(cj.Rect, ci.Center)
	}
	return v / cj.Area()
}

func (a *Assembly) assembleP(ctx context.Context) error {
	cells := a.Mesh.Cells
	g := offsetGroup{idx: make([]int, len(cells)), coords: make([][2]int, len(cells))}
	for i, c := range cells {
		g.idx[i], g.coords[i] = i, [2]int{c.IX, c.IY}
	}
	ops, err := a.fill(ctx, "bem: assemble P", &a.p, len(cells), []offsetGroup{g}, func(i, j int) float64 {
		return a.scalarEntryNoCount(cells[i], cells[j])
	})
	if err != nil {
		return err
	}
	a.POp = ops[0]
	return nil
}

// vectorEntryNoCount returns the partial inductance between links k and l
// (collocation or Galerkin over the observation patch). Callers account for
// KernelEvals themselves.
func (a *Assembly) vectorEntryNoCount(lk, ll mesh.Link) float64 {
	var v float64
	if a.Opts.Testing == Galerkin {
		v = a.Kernel.VectorPanelGalerkin(ll.Patch, lk.Patch, a.Opts.GaussOrder) * lk.Patch.Area()
	} else {
		v = a.Kernel.VectorPanel(ll.Patch, lk.Patch.Center()) * lk.Patch.Area()
	}
	// L_kl = (1/(w_k w_l)) ∫_k ∫_l G_A dA dA′ ; the panel integral above is
	// ∫_l G_A dA′ integrated (or collocated) over patch k.
	return v / (lk.Width * ll.Width)
}

func (a *Assembly) assembleL(ctx context.Context) error {
	links := a.Mesh.Links
	var groups [2]offsetGroup // indexed by mesh.Direction
	for i, l := range links {
		c := a.Mesh.Cells[l.From]
		g := &groups[l.Dir]
		g.idx = append(g.idx, i)
		g.coords = append(g.coords, [2]int{c.IX, c.IY})
	}
	ops, err := a.fill(ctx, "bem: assemble L", &a.l, len(links), groups[:], func(i, j int) float64 {
		return a.vectorEntryNoCount(links[i], links[j])
	})
	if err != nil {
		return err
	}
	copy(a.LOps[:], ops)
	return nil
}

// offsetGroup is a set of unknowns whose mutual entries depend on their grid
// offset alone: every cell for P, and the links of one direction for each L
// block. Entries between groups are zero (orthogonal currents do not
// couple).
type offsetGroup struct {
	idx    []int    // unknown indices, ascending
	coords [][2]int // grid coordinate of each unknown (a link's From cell)
}

// fill assembles the n×n matrix d whose entry (i, j) is entry(i, j) when i
// and j share a group and zero otherwise. Under OpDirect every entry is its
// own panel integral (directFill), written into the dense matrix at once.
// Otherwise the grid has been validated uniform: each group gets its offset
// table (offsetTable), which d keeps to build the dense matrix on demand
// and which becomes the group's ToeplitzOp unless Opts.Operator is OpDense.
// The returned operators are indexed like groups, nil where none was built.
func (a *Assembly) fill(ctx context.Context, stage string, d *denseBlocks, n int, groups []offsetGroup, entry func(i, j int) float64) ([]*mat.ToeplitzOp, error) {
	ops := make([]*mat.ToeplitzOp, len(groups))
	var m *mat.Matrix
	if a.Opts.Operator == OpDirect {
		m = mat.New(n, n)
	} else {
		d.n, d.nx, d.groups, d.tables = n, a.gridNX, groups, make([][]float64, len(groups))
	}
	for gi, g := range groups {
		if len(g.idx) == 0 {
			continue
		}
		var table []float64
		var evals int
		if m != nil {
			evals = directFill(ctx, m, g, entry)
		} else {
			table, evals = a.offsetTable(ctx, g, entry)
		}
		// Count completed evaluations before the cancellation check so the
		// ablation numbers stay honest under timeout.
		a.KernelEvals += evals
		if err := simerr.CheckCtx(ctx, stage); err != nil {
			return nil, err
		}
		if table == nil {
			continue
		}
		d.tables[gi] = table
		if a.Opts.Operator != OpDense {
			op, err := mat.NewToeplitzOp(a.gridNX, a.gridNY, table, g.coords)
			if err != nil {
				return nil, err
			}
			ops[gi] = op
		}
	}
	if m != nil {
		// Collocation leaves the direct fill very slightly asymmetric; the
		// physical operator is symmetric, so restore it before any SPD
		// factorisation.
		m.Symmetrize()
		d.m = m
	}
	return ops, nil
}

// directFill is the reference fill: one panel integral per entry of the
// group's block, rows spread across workers. Returns the number of integrals
// completed (rows abandoned after cancellation are not counted).
func directFill(ctx context.Context, m *mat.Matrix, g offsetGroup, entry func(i, j int) float64) int {
	var done atomic.Int64
	parallelFor(len(g.idx), func(p int) {
		if ctx != nil && ctx.Err() != nil {
			return // abandon remaining integrals once cancelled
		}
		i := g.idx[p]
		for _, j := range g.idx {
			m.Set(i, j, entry(i, j))
		}
		done.Add(int64(len(g.idx)))
	})
	return int(done.Load())
}

// offsetTable evaluates a group's offset table: the flat nx·ny slice whose
// entry |Δiy|·nx + |Δix| is the group's matrix entry at that grid offset. On
// the validated uniform grid the kernels are translation invariant and
// symmetric in each axis, so one integral per offset suffices. A row-major
// (i, j) scan takes the first pair that realises each offset as its
// representative, and the representatives are evaluated across workers.
// The scan stops once it has found every offset the occupancy grid
// realises (realisableOffsets): on a full plane the first corner cell
// realises them all. Offsets no pair realises (a partial plane does not
// fill its bounding grid) are never evaluated and stay zero: no entry
// between two unknowns reads them. Returns the table and the number of
// integrals completed.
func (a *Assembly) offsetTable(ctx context.Context, g offsetGroup, entry func(i, j int) float64) ([]float64, int) {
	nx, n := a.gridNX, len(g.idx)
	rep := make([]int, nx*a.gridNY) // 1 + p·n + q of the representative pair; 0 while unrealised
	want := realisableOffsets(g.coords, nx, a.gridNY)
	var offs []int
scan:
	for p, cp := range g.coords {
		for q, cq := range g.coords {
			if o := abs(cp[1]-cq[1])*nx + abs(cp[0]-cq[0]); rep[o] == 0 {
				rep[o] = 1 + p*n + q
				offs = append(offs, o)
				if len(offs) == want {
					break scan
				}
			}
		}
	}
	table := make([]float64, len(rep))
	var done atomic.Int64
	parallelFor(len(offs), func(k int) {
		if ctx != nil && ctx.Err() != nil {
			return
		}
		pq := rep[offs[k]] - 1
		table[offs[k]] = entry(g.idx[pq/n], g.idx[pq%n])
		done.Add(1)
	})
	return table, int(done.Load())
}

// realisableOffsets counts the distinct offsets (|Δix|, |Δiy|) between two
// of coords (a coordinate and itself included) on an nx×ny grid, from its
// occupancy alone: each grid row is a few runs of occupied columns, and two
// runs in rows |Δiy| apart realise one or two intervals of |Δix|, which a
// difference array per |Δiy| accumulates.
func realisableOffsets(coords [][2]int, nx, ny int) int {
	occ := make([]bool, nx*ny)
	for _, c := range coords {
		occ[c[1]*nx+c[0]] = true
	}
	type run struct{ lo, hi int }
	runs := make([][]run, ny)
	for y := range runs {
		row := occ[y*nx : (y+1)*nx]
		for x := 0; x < nx; x++ {
			if row[x] {
				lo := x
				for x+1 < nx && row[x+1] {
					x++
				}
				runs[y] = append(runs[y], run{lo, x})
			}
		}
	}
	diff := make([]int, ny*(nx+1)) // per |Δiy|: +1 where an interval of |Δix| starts, −1 past its end
	for y1 := range runs {
		for y2 := y1; y2 < ny; y2++ {
			d := diff[(y2-y1)*(nx+1) : (y2-y1+1)*(nx+1)]
			for _, r1 := range runs[y1] {
				for _, r2 := range runs[y2] {
					// Δix = x2 − x1 covers [lo, hi]; |Δix| covers its
					// non-negative part and the mirror of its negative part.
					lo, hi := r2.lo-r1.hi, r2.hi-r1.lo
					if hi >= 0 {
						d[max(lo, 0)]++
						d[hi+1]--
					}
					if lo < 0 {
						d[max(-hi, 0)]++
						d[-lo+1]--
					}
				}
			}
		}
	}
	count := 0
	for dy := 0; dy < ny; dy++ {
		cover := 0
		for _, v := range diff[dy*(nx+1) : dy*(nx+1)+nx] {
			if cover += v; cover > 0 {
				count++
			}
		}
	}
	return count
}

func (a *Assembly) assembleR() {
	rho := a.Opts.SheetResistance + a.Opts.ReturnSheetResistance
	a.R = make([]float64, len(a.Mesh.Links))
	for i, l := range a.Mesh.Links {
		a.R[i] = rho * l.Length / l.Width
	}
}

// CellCapacitance returns the Maxwell (short-circuit) capacitance matrix of
// the cells, C = P⁻¹. Diagonal entries are positive (capacitance to the
// return plane plus mutuals), off-diagonals negative. Reductions that only
// need C applied to a few columns use ApplyCapacitance instead of this
// explicit n×n inverse.
func (a *Assembly) CellCapacitance() (*mat.Matrix, error) {
	c, err := a.ApplyCapacitance(mat.Eye(len(a.Mesh.Cells)))
	if err != nil {
		return nil, err
	}
	c.Symmetrize()
	return c, nil
}

// ApplyCapacitance returns C·W = P⁻¹·W (cells×k) by one k-column solve
// against the factorised potential-coefficient matrix.
func (a *Assembly) ApplyCapacitance(w *mat.Matrix) (*mat.Matrix, error) {
	cw, err := mat.SolveSPD(a.P(), w)
	if err != nil {
		return nil, fmt.Errorf("bem: potential-coefficient matrix not invertible: %w", err)
	}
	return cw, nil
}

// TotalCapacitance returns the total capacitance of the plane to its return
// plane: 1ᵀ·C·1 (all cells tied together and driven against the return).
func (a *Assembly) TotalCapacitance() (float64, error) {
	ones := mat.New(len(a.Mesh.Cells), 1)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	q, err := a.ApplyCapacitance(ones)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, v := range q.Data {
		s += v
	}
	return s, nil
}

// InverseInductanceLaplacian returns Γ = A·L⁻¹·Aᵀ over cells: the nodal
// inverse-inductance operator of the link network. Its null space is the
// all-ones vector (a floating network), matching paper Eq. 26 (L_mm = 0 for
// the reference node).
//
// With the Cholesky factor L = L_c·L_cᵀ it is the Gram product Γ = YᵀY of
// Y = L_c⁻¹·Aᵀ: one forward solve and a symmetric product, exactly
// symmetric by construction.
func (a *Assembly) InverseInductanceLaplacian() (*mat.Matrix, error) {
	at := a.Mesh.Incidence().T() // links×cells
	if ch, err := mat.NewCholesky(a.L()); err == nil {
		y, err := ch.SolveLower(at)
		if err != nil {
			return nil, err
		}
		return mat.Gram(y), nil
	}
	lu, err := mat.NewLU(a.L())
	if err != nil {
		return nil, fmt.Errorf("bem: partial-inductance matrix not invertible: %w", err)
	}
	x, err := lu.SolveMatrix(at)
	if err != nil {
		return nil, err
	}
	// Γ = A·X with A the cells×links incidence matrix: each link l
	// contributes its X row to cell From and its negation to cell To. The
	// direct accumulation is O(links·cells) versus O(cells·links·cells) for a
	// dense A·X product — the incidence matrix is two entries per column, and
	// the dense kernel (deliberately) no longer skips zero terms.
	cells := len(a.Mesh.Cells)
	g := mat.New(cells, cells)
	for _, l := range a.Mesh.Links {
		row := x.Data[l.Index*cells : (l.Index+1)*cells]
		from := g.Data[l.From*cells : (l.From+1)*cells]
		to := g.Data[l.To*cells : (l.To+1)*cells]
		for j, v := range row {
			from[j] += v
			to[j] -= v
		}
	}
	g.Symmetrize()
	return g, nil
}

// Conductances returns each link's DC conductance 1/R (0 where R is not
// positive): the link weights of the nodal conductance Laplacian
// G = A·R⁻¹·Aᵀ. Returns nil if the assembly is lossless (all link
// resistances zero).
func (a *Assembly) Conductances() []float64 {
	var g []float64
	for i, r := range a.R {
		if r > 0 {
			if g == nil {
				g = make([]float64, len(a.R))
			}
			g[i] = 1 / r
		}
	}
	return g
}

// irDropResidTol is the relative residual ‖G·v − i‖/‖i‖ above which the
// IR-drop solve is declared inconsistent. The grounded Laplacian solve
// itself delivers residuals near machine epsilon; only a load placed on an
// island with no conductive path to the reference produces an O(1)
// residual, so 1e-6 cleanly separates the two regimes.
const irDropResidTol = 1e-6

// DCPotential solves the plane's DC (IR-drop) problem: given currents
// injected into cells (positive = current drawn out of the plane into a
// load) and one cell held at zero potential (the supply entry), it returns
// the potential of every cell. This is the resistive-network solve of the
// conductance Laplacian grounded at the reference — the practical IR-drop
// map a PDN designer reads off the extraction. In raster order that
// Laplacian is banded with about one grid row of bandwidth, so it factors
// by band Cholesky in O(n·bw²).
//
//pdnlint:ignore ctxflow cancellation is checked once before the solve: the in-body loops are O(cells·bandwidth) bookkeeping and one banded factorisation
func (a *Assembly) DCPotential(ctx context.Context, injections map[int]float64, refCell int) ([]float64, error) {
	g := a.Conductances()
	if g == nil {
		return nil, simerr.Tagf(simerr.ErrBadInput, "bem: lossless assembly has no DC resistance network")
	}
	n := len(a.Mesh.Cells)
	if refCell < 0 || refCell >= n {
		return nil, simerr.Tagf(simerr.ErrBadInput, "bem: reference cell %d out of range", refCell)
	}
	rhs := make([]float64, n)
	for cell, i := range injections {
		if cell < 0 || cell >= n {
			return nil, simerr.Tagf(simerr.ErrBadInput, "bem: injection cell %d out of range", cell)
		}
		rhs[cell] = -i // drawing current out of the plane
	}
	if err := simerr.CheckCtx(ctx, "bem: IR-drop solve"); err != nil {
		return nil, err
	}
	// The reference cell supplies the return current and is grounded:
	// delete its row/column (grounded Laplacian).
	keep := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != refCell {
			keep = append(keep, i)
		}
	}
	packed, bw, _ := a.Mesh.BandLaplacian(keep, g)
	ch, err := mat.NewBandCholesky(len(keep), bw, packed)
	if err != nil {
		return nil, fmt.Errorf("bem: grounded conductance Laplacian not SPD (disconnected mesh?): %w", err)
	}
	vk := make([]float64, len(keep))
	for p, c := range keep {
		vk[p] = rhs[c]
	}
	ch.SolveTo(vk, vk)
	out := make([]float64, n)
	for p, c := range keep {
		out[c] = vk[p]
	}
	// A load on an island with no conductive path to the reference makes
	// the system inconsistent; near-zero pivots can mask that in the
	// factorisation, so verify the residual G·v − i explicitly.
	resid := make([]float64, n)
	for i, l := range a.Mesh.Links {
		f := g[i] * (out[l.From] - out[l.To])
		resid[l.From] += f
		resid[l.To] -= f
	}
	var rn, bn float64
	for c := range resid {
		if c == refCell {
			continue
		}
		d := resid[c] - rhs[c]
		rn += d * d
		bn += rhs[c] * rhs[c]
	}
	if bn > 0 && math.Sqrt(rn) > irDropResidTol*math.Sqrt(bn) {
		return nil, simerr.Tagf(simerr.ErrSingular, "bem: IR-drop system inconsistent — no conductive path from a loaded cell to the reference")
	}
	return out, nil
}

// DCCurrents returns the per-link currents (A) implied by a DCPotential
// solution: I_l = (V_from − V_to)/R_l, positive in the link's From→To
// direction. Links with zero resistance report zero (lossless assemblies
// have no DC solution anyway).
func (a *Assembly) DCCurrents(v []float64) ([]float64, error) {
	if len(v) != len(a.Mesh.Cells) {
		return nil, simerr.Tagf(simerr.ErrBadInput, "bem: potential vector has %d entries, want %d", len(v), len(a.Mesh.Cells))
	}
	out := make([]float64, len(a.Mesh.Links))
	for i, l := range a.Mesh.Links {
		if a.R[i] <= 0 {
			continue
		}
		out[i] = (v[l.From] - v[l.To]) / a.R[i]
	}
	return out, nil
}

// WorstCurrentDensity returns the largest |I|/width over the links (A/m) —
// the electromigration-style hotspot metric of an IR-drop solve.
func (a *Assembly) WorstCurrentDensity(currents []float64) float64 {
	var worst float64
	for i, l := range a.Mesh.Links {
		if i >= len(currents) || l.Width <= 0 {
			continue
		}
		if d := absf(currents[i]) / l.Width; d > worst {
			worst = d
		}
	}
	return worst
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// WorstIRDrop returns the largest potential drop magnitude of a DCPotential
// solution (relative to the reference cell).
func WorstIRDrop(v []float64) float64 {
	var worst float64
	for _, x := range v {
		if d := -x; d > worst {
			worst = d
		}
	}
	return worst
}

// gridUniformRelTol is the relative tolerance, in cell widths and heights,
// within which every cell's size must match the first cell's, and its origin
// must sit at the first cell's origin plus its grid offset times that size,
// for the mesh to count as a uniform grid. mesh.Grid computes cell edges from
// one float step, so legitimate uniform grids agree to a few ulps per cell of
// grid extent (under 1e-10 for a thousand cells a side); a graded or
// misplaced cell is off by a percent of a cell or more. 1e-9 sits
// comfortably between the two regimes.
const gridUniformRelTol = 1e-9

// uniformGrid validates the offset tables' translation-invariance
// precondition: all cells share one width and height, each cell's origin
// equals cell 0's plus (ΔIX·w0, ΔIY·h0) (both within gridUniformRelTol), and
// the integer grid coordinates are non-negative and never repeat. Returns the
// bounding grid dimensions and the largest relative size or origin deviation
// observed; a non-nil error describes the first violation.
func uniformGrid(m *mesh.Mesh) (nx, ny int, dev float64, err error) {
	if len(m.Cells) == 0 {
		return 0, 0, 0, simerr.Tagf(simerr.ErrBadInput, "empty mesh")
	}
	c0 := &m.Cells[0]
	w0, h0 := c0.Rect.W(), c0.Rect.H()
	if w0 <= 0 || h0 <= 0 {
		return 0, 0, 0, simerr.Tagf(simerr.ErrBadInput, "cell 0 has non-positive size %g×%g", w0, h0)
	}
	for i := range m.Cells {
		c := &m.Cells[i]
		if c.IX < 0 || c.IY < 0 {
			return 0, 0, dev, simerr.Tagf(simerr.ErrBadInput, "cell %d has negative grid coordinate (%d,%d)", i, c.IX, c.IY)
		}
		nx, ny = max(nx, c.IX+1), max(ny, c.IY+1)
		dw := math.Abs(c.Rect.W()-w0) / w0
		dh := math.Abs(c.Rect.H()-h0) / h0
		dev = max(dev, dw, dh)
		if dw > gridUniformRelTol || dh > gridUniformRelTol {
			return 0, 0, dev, simerr.Tagf(simerr.ErrBadInput, "cell %d is %g×%g, cell 0 is %g×%g (relative deviation %.3g > %g)",
				i, c.Rect.W(), c.Rect.H(), w0, h0, dev, gridUniformRelTol)
		}
		ox := math.Abs(c.Rect.X0-c0.Rect.X0-float64(c.IX-c0.IX)*w0) / w0
		oy := math.Abs(c.Rect.Y0-c0.Rect.Y0-float64(c.IY-c0.IY)*h0) / h0
		dev = max(dev, ox, oy)
		if ox > gridUniformRelTol || oy > gridUniformRelTol {
			return 0, 0, dev, simerr.Tagf(simerr.ErrBadInput, "cell %d at (%g, %g) is off its grid position (%d,%d) by %.3g cells (> %g)",
				i, c.Rect.X0, c.Rect.Y0, c.IX, c.IY, max(ox, oy), gridUniformRelTol)
		}
	}
	owner := make([]int, nx*ny) // 1 + index of the cell at each grid coordinate
	for i := range m.Cells {
		c := &m.Cells[i]
		o := &owner[c.IY*nx+c.IX]
		if *o != 0 {
			return 0, 0, dev, simerr.Tagf(simerr.ErrBadInput, "cells %d and %d share grid coordinate (%d,%d)", *o-1, i, c.IX, c.IY)
		}
		*o = i + 1
	}
	return nx, ny, dev, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// parallelFor evaluates the embarrassingly parallel panel integrals across
// workers; each call writes only its own output slot.
func parallelFor(n int, fn func(i int)) { mat.ParallelFor(n, fn) }
