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
// grids produced by mesh.Grid the kernels are translation invariant, so
// entries are cached by integer grid offset (Toeplitz caching), reducing
// kernel evaluations from O(N²) to O(N).
package bem

import (
	"context"

	"fmt"
	"math"
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

// OperatorMode selects whether the assembly emits structure-preserving
// Toeplitz operators alongside the dense fill.
type OperatorMode int

const (
	// OpAuto emits ToeplitzOp operators whenever the mesh passes the
	// uniform-grid validation and Toeplitz caching is on; otherwise the
	// assembly silently stays dense-only. The default.
	OpAuto OperatorMode = iota
	// OpDense never emits operators: downstream solves always densify.
	OpDense
	// OpToeplitz requires operators: a mesh that fails the uniform-grid
	// validation is an error instead of a silent dense fallback.
	OpToeplitz
)

func (m OperatorMode) String() string {
	switch m {
	case OpDense:
		return "dense"
	case OpToeplitz:
		return "toeplitz"
	default:
		return "auto"
	}
}

// Options configure an assembly.
type Options struct {
	Testing    TestingScheme
	GaussOrder int  // Galerkin quadrature order per axis (default 2)
	Toeplitz   bool // cache kernel integrals by grid offset (default on via DefaultOptions)

	// Operator controls emission of FFT-applicable ToeplitzOp operators for
	// P and the per-direction L blocks (the superlinear solve path in
	// internal/extract). Requires Toeplitz caching and a validated uniform
	// grid; see OperatorMode.
	Operator OperatorMode

	// SheetResistance is the resistance per square of the meshed plane (Ω/sq).
	SheetResistance float64
	// ReturnSheetResistance is the resistance per square of the return
	// plane, added in series with the forward path (Ω/sq).
	ReturnSheetResistance float64
}

// DefaultOptions returns the recommended assembly configuration.
func DefaultOptions() Options {
	return Options{Testing: Collocation, GaussOrder: 2, Toeplitz: true}
}

// Assembly holds the assembled BEM operators for one plane.
type Assembly struct {
	Mesh   *mesh.Mesh
	Kernel *greens.Kernel
	Opts   Options

	P *mat.Matrix // cells×cells potential coefficients (1/F)
	L *mat.Matrix // links×links partial inductances (H)
	R []float64   // per-link series resistance (Ω)

	// POp, when non-nil, is the block-Toeplitz form of P: the same matrix as
	// an O(n log n) operator (emitted on validated uniform grids unless
	// Opts.Operator is OpDense). LOps likewise holds the per-direction
	// partial-inductance blocks, indexed by mesh.Direction and ordered by
	// link index within each direction; an entry is nil when the mesh has no
	// links in that direction.
	POp  *mat.ToeplitzOp
	LOps [2]*mat.ToeplitzOp

	// Diag records assembly-stage warnings: currently the uniform-grid
	// fallback (Toeplitz caching requested on a non-uniform mesh).
	Diag *diag.Diagnostics

	// KernelEvals counts distinct panel-integral evaluations performed
	// (used by the Toeplitz ablation benchmark). Under cancellation it
	// counts only evaluations that actually completed.
	KernelEvals int

	// gridNX, gridNY are the validated uniform-grid dimensions (0 when the
	// mesh failed validation or Toeplitz caching is off).
	gridNX, gridNY int
}

// Assemble fills P, L and R for the given mesh and Green's function kernel.
func Assemble(m *mesh.Mesh, k *greens.Kernel, opts Options) (*Assembly, error) {
	return AssembleCtx(context.Background(), m, k, opts) //pdnlint:ignore ctxflow documented non-Ctx compatibility shim; cancellable callers use AssembleCtx
}

// AssembleCtx is Assemble with cancellation: the panel-integral loops (the
// dominant cost on fine meshes) check ctx periodically and abandon the run
// with a simerr.ErrCancelled-class error when it is done. Internal panics
// from malformed meshes surface as simerr.ErrBadInput instead of crashing.
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
	if a.Opts.Operator == OpToeplitz && !a.Opts.Toeplitz {
		// Operator emission reads the offset cache; forcing the operator
		// implies the cache.
		a.Opts.Toeplitz = true
	}
	if a.Opts.Toeplitz {
		// The offset cache (and the ToeplitzOp built from it) assumes the
		// kernel is translation invariant across cells, which holds only on a
		// uniform grid — validate instead of silently filling a wrong matrix.
		nx, ny, dev, err := uniformGrid(m)
		if err != nil {
			if a.Opts.Operator == OpToeplitz {
				return nil, simerr.BadInput("bem: assemble", "Operator: toeplitz requires a uniform grid: %v", err)
			}
			a.Opts.Toeplitz = false
			a.Diag.Warnf("bem", "grid uniformity", dev, gridUniformRelTol, true,
				"Toeplitz offset cache disabled, direct fill used: %v", err)
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
	n := len(cells)
	a.P = mat.New(n, n)
	if a.Opts.Toeplitz {
		// Entries depend only on the grid offset (Δix, Δiy); cell sizes are
		// uniform so the kernel is translation invariant. |Δ| suffices by
		// symmetry of the kernel in each axis. The distinct offsets are
		// enumerated first and their panel integrals evaluated across
		// workers; the fill loop then only reads the table.
		type job struct {
			key  [2]int
			i, j int
		}
		seen := make(map[[2]int]job)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				key := [2]int{abs(cells[i].IX - cells[j].IX), abs(cells[i].IY - cells[j].IY)}
				if _, ok := seen[key]; !ok {
					seen[key] = job{key, i, j}
				}
			}
		}
		cache := make(map[[2]int]float64, len(seen))
		jobs := make([]job, 0, len(seen))
		for _, jb := range seen {
			jobs = append(jobs, jb)
		}
		vals := make([]float64, len(jobs))
		var done atomic.Int64
		parallelFor(len(jobs), func(k int) {
			if ctx != nil && ctx.Err() != nil {
				return // abandon remaining integrals once cancelled
			}
			vals[k] = a.scalarEntryNoCount(cells[jobs[k].i], cells[jobs[k].j])
			done.Add(1)
		})
		// Count completed evaluations before the cancellation check so the
		// ablation numbers stay honest under timeout.
		a.KernelEvals += int(done.Load())
		if err := simerr.CheckCtx(ctx, "bem: assemble P"); err != nil {
			return err
		}
		for k, jb := range jobs {
			cache[jb.key] = vals[k]
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				key := [2]int{abs(cells[i].IX - cells[j].IX), abs(cells[i].IY - cells[j].IY)}
				a.P.Set(i, j, cache[key])
			}
		}
		if a.Opts.Operator != OpDense {
			op, err := a.toeplitzFromCache(func(dx, dy int) (float64, bool) {
				v, ok := cache[[2]int{dx, dy}]
				return v, ok
			}, cellCoords(cells))
			if err != nil {
				return err
			}
			a.POp = op
		}
	} else {
		var done atomic.Int64
		parallelFor(n, func(i int) {
			if ctx != nil && ctx.Err() != nil {
				return
			}
			for j := 0; j < n; j++ {
				a.P.Set(i, j, a.scalarEntryNoCount(cells[i], cells[j]))
			}
			done.Add(int64(n))
		})
		a.KernelEvals += int(done.Load())
		if err := simerr.CheckCtx(ctx, "bem: assemble P"); err != nil {
			return err
		}
	}
	// Collocation leaves P very slightly asymmetric; the physical operator
	// is symmetric, so restore it before any SPD factorisation.
	a.P.Symmetrize()
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
	n := len(links)
	a.L = mat.New(n, n)
	if a.Opts.Toeplitz {
		type key struct {
			dir      mesh.Direction
			dix, diy int
		}
		type job struct {
			kk   key
			i, j int
		}
		seen := make(map[key]job)
		linkKey := func(i, j int) key {
			fi, fj := a.Mesh.Cells[links[i].From], a.Mesh.Cells[links[j].From]
			return key{links[i].Dir, abs(fi.IX - fj.IX), abs(fi.IY - fj.IY)}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if links[i].Dir != links[j].Dir {
					continue // orthogonal currents do not couple
				}
				kk := linkKey(i, j)
				if _, ok := seen[kk]; !ok {
					seen[kk] = job{kk, i, j}
				}
			}
		}
		jobs := make([]job, 0, len(seen))
		for _, jb := range seen {
			jobs = append(jobs, jb)
		}
		vals := make([]float64, len(jobs))
		var done atomic.Int64
		parallelFor(len(jobs), func(k int) {
			if ctx != nil && ctx.Err() != nil {
				return
			}
			vals[k] = a.vectorEntryNoCount(links[jobs[k].i], links[jobs[k].j])
			done.Add(1)
		})
		a.KernelEvals += int(done.Load())
		if err := simerr.CheckCtx(ctx, "bem: assemble L"); err != nil {
			return err
		}
		cache := make(map[key]float64, len(jobs))
		for k, jb := range jobs {
			cache[jb.kk] = vals[k]
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if links[i].Dir != links[j].Dir {
					continue
				}
				a.L.Set(i, j, cache[linkKey(i, j)])
			}
		}
		if a.Opts.Operator != OpDense {
			for _, dir := range []mesh.Direction{mesh.DirX, mesh.DirY} {
				var coords [][2]int
				for i := range links {
					if links[i].Dir == dir {
						c := a.Mesh.Cells[links[i].From]
						coords = append(coords, [2]int{c.IX, c.IY})
					}
				}
				if len(coords) == 0 {
					continue
				}
				op, err := a.toeplitzFromCache(func(dx, dy int) (float64, bool) {
					v, ok := cache[key{dir, dx, dy}]
					return v, ok
				}, coords)
				if err != nil {
					return err
				}
				a.LOps[dir] = op
			}
		}
	} else {
		var done atomic.Int64
		parallelFor(n, func(i int) {
			if ctx != nil && ctx.Err() != nil {
				return
			}
			row := 0
			for j := 0; j < n; j++ {
				if links[i].Dir != links[j].Dir {
					continue
				}
				a.L.Set(i, j, a.vectorEntryNoCount(links[i], links[j]))
				row++
			}
			done.Add(int64(row))
		})
		a.KernelEvals += int(done.Load())
		if err := simerr.CheckCtx(ctx, "bem: assemble L"); err != nil {
			return err
		}
	}
	a.L.Symmetrize()
	return nil
}

// cellCoords returns the integer grid coordinate of every cell, in cell
// order — the unknown ordering of the P operator.
func cellCoords(cells []mesh.Cell) [][2]int {
	coords := make([][2]int, len(cells))
	for i := range cells {
		coords[i] = [2]int{cells[i].IX, cells[i].IY}
	}
	return coords
}

// toeplitzFromCache assembles a ToeplitzOp over the validated uniform grid
// from the offset cache just used for the dense fill. Offsets absent from
// the cache never occur between two unknowns (a partial plane does not
// realise every offset of its bounding grid), so their table entries are
// never read by the operator's scatter/gather product and zero is a safe
// placeholder.
func (a *Assembly) toeplitzFromCache(lookup func(dx, dy int) (float64, bool), coords [][2]int) (*mat.ToeplitzOp, error) {
	nx, ny := a.gridNX, a.gridNY
	table := make([]float64, nx*ny)
	for dy := 0; dy < ny; dy++ {
		for dx := 0; dx < nx; dx++ {
			if v, ok := lookup(dx, dy); ok {
				table[dy*nx+dx] = v
			}
		}
	}
	return mat.NewToeplitzOp(nx, ny, table, coords)
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
	cw, err := mat.SolveSPD(a.P, w)
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
	if ch, err := mat.NewCholesky(a.L); err == nil {
		y, err := ch.SolveLower(at)
		if err != nil {
			return nil, err
		}
		return mat.Gram(y), nil
	}
	lu, err := mat.NewLU(a.L)
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

// ConductanceLaplacian returns G = A·R⁻¹·Aᵀ over cells: the nodal DC
// conductance operator. Returns nil if the assembly is lossless (all link
// resistances zero).
func (a *Assembly) ConductanceLaplacian() *mat.Matrix {
	anyR := false
	for _, r := range a.R {
		if r > 0 {
			anyR = true
			break
		}
	}
	if !anyR {
		return nil
	}
	n := len(a.Mesh.Cells)
	g := mat.New(n, n)
	for i, l := range a.Mesh.Links {
		if a.R[i] <= 0 {
			continue
		}
		gi := 1 / a.R[i]
		g.Add(l.From, l.From, gi)
		g.Add(l.To, l.To, gi)
		g.Add(l.From, l.To, -gi)
		g.Add(l.To, l.From, -gi)
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
// assembled conductance Laplacian — the practical IR-drop map a PDN designer
// reads off the extraction.
func (a *Assembly) DCPotential(injections map[int]float64, refCell int) ([]float64, error) {
	g := a.ConductanceLaplacian()
	if g == nil {
		return nil, simerr.Tagf(simerr.ErrBadInput, "bem: lossless assembly has no DC resistance network")
	}
	n := len(a.Mesh.Cells)
	if refCell < 0 || refCell >= n {
		return nil, simerr.Tagf(simerr.ErrBadInput, "bem: reference cell %d out of range", refCell)
	}
	var totalIn float64
	rhs := make([]float64, n)
	for cell, i := range injections {
		if cell < 0 || cell >= n {
			return nil, simerr.Tagf(simerr.ErrBadInput, "bem: injection cell %d out of range", cell)
		}
		rhs[cell] = -i // drawing current out of the plane
		totalIn += i
	}
	// The reference cell supplies the return current and is grounded:
	// delete its row/column (grounded Laplacian).
	keep := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != refCell {
			keep = append(keep, i)
		}
	}
	gk := g.Submatrix(keep, keep)
	rk := make([]float64, len(keep))
	for i, c := range keep {
		rk[i] = rhs[c]
	}
	var vk []float64
	if len(keep) > 600 {
		// Large mesh: the diagonally dominant grounded Laplacian converges
		// quickly under preconditioned CG, avoiding the O(n³) factorisation.
		var err error
		vk, err = mat.ConjugateGradient(gk, rk, 1e-11, 0)
		if err != nil {
			return nil, fmt.Errorf("bem: IR-drop CG solve: %w", err)
		}
	} else {
		ch, err := mat.NewCholesky(gk)
		if err != nil {
			return nil, fmt.Errorf("bem: grounded conductance Laplacian not SPD (disconnected mesh?): %w", err)
		}
		vk, err = ch.Solve(rk)
		if err != nil {
			return nil, err
		}
	}
	// A load on an island with no conductive path to the reference makes
	// the system inconsistent; near-zero pivots can mask that in the
	// factorisation, so verify the residual explicitly.
	resid := gk.MulVec(vk)
	var rn, bn float64
	for i := range resid {
		d := resid[i] - rk[i]
		rn += d * d
		bn += rk[i] * rk[i]
	}
	if bn > 0 && math.Sqrt(rn) > irDropResidTol*math.Sqrt(bn) {
		return nil, simerr.Tagf(simerr.ErrSingular, "bem: IR-drop system inconsistent — no conductive path from a loaded cell to the reference")
	}
	out := make([]float64, n)
	for i, c := range keep {
		out[c] = vk[i]
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

// gridUniformRelTol is the relative tolerance within which every cell's
// width and height must match the first cell's for the mesh to count as a
// uniform grid. mesh.Grid computes cell edges as cumulative sums of one
// float step, so legitimate uniform grids agree to a few ulps; a genuinely
// graded mesh differs at the percent level. 1e-9 sits comfortably between
// the two regimes.
const gridUniformRelTol = 1e-9

// uniformGrid validates the Toeplitz cache's translation-invariance
// precondition: all cells share one width and height (within
// gridUniformRelTol relative) and carry consistent non-negative integer
// grid coordinates. Returns the bounding grid dimensions and the largest
// relative size deviation observed; a non-nil error describes the first
// violation.
func uniformGrid(m *mesh.Mesh) (nx, ny int, dev float64, err error) {
	if len(m.Cells) == 0 {
		return 0, 0, 0, simerr.Tagf(simerr.ErrBadInput, "empty mesh")
	}
	w0, h0 := m.Cells[0].Rect.W(), m.Cells[0].Rect.H()
	if w0 <= 0 || h0 <= 0 {
		return 0, 0, 0, simerr.Tagf(simerr.ErrBadInput, "cell 0 has non-positive size %g×%g", w0, h0)
	}
	for i := range m.Cells {
		c := &m.Cells[i]
		if c.IX < 0 || c.IY < 0 {
			return 0, 0, dev, simerr.Tagf(simerr.ErrBadInput, "cell %d has negative grid coordinate (%d,%d)", i, c.IX, c.IY)
		}
		if c.IX+1 > nx {
			nx = c.IX + 1
		}
		if c.IY+1 > ny {
			ny = c.IY + 1
		}
		dw := math.Abs(c.Rect.W()-w0) / w0
		dh := math.Abs(c.Rect.H()-h0) / h0
		if dw > dev {
			dev = dw
		}
		if dh > dev {
			dev = dh
		}
		if dw > gridUniformRelTol || dh > gridUniformRelTol {
			return 0, 0, dev, simerr.Tagf(simerr.ErrBadInput, "cell %d is %g×%g, cell 0 is %g×%g (relative deviation %.3g > %g)",
				i, c.Rect.W(), c.Rect.H(), w0, h0, dev, gridUniformRelTol)
		}
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
