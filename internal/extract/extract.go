// Package extract implements the paper's §4: reduction of the assembled BEM
// system to an N-node distributed equivalent circuit with frequency
// independent R, L, C elements.
//
// The full cell/link system is reduced to a chosen node set (every external
// power/ground connection, plus optionally a number of interior cells that
// preserve the distributed resonant behaviour — the paper's third example
// keeps 42 nodes for a 5-port structure). Reduction is exact Kron/Schur
// elimination of the inductive and resistive networks, and Guyan
// congruence of the capacitive one:
//
//   - Γ = A·L⁻¹·Aᵀ — the nodal inverse-inductance Laplacian, Kron-reduced;
//   - G = A·R⁻¹·Aᵀ — the nodal DC-conductance Laplacian, Kron-reduced;
//   - C = P⁻¹ — the Maxwell capacitance matrix, reduced as Wᵀ·C·W with the
//     interpolation W = [I; −Γ_ii⁻¹·Γ_ik] that Γ's Kron reduction already
//     computes. The dense path forms C·W by one solve against the factored
//     P and never builds the explicit n×n inverse (see denseReduce).
//
// Branch values then follow the paper's Eq. 22–27: every node pair (m,n)
// carries L_mn = −1/Γ_mn in series with R_mn = −1/G_mn, in parallel with
// C_mn = −C[m][n]; each node additionally carries the row-sum capacitance to
// the reference plane. L_mm = 0 (no inductive branch to the reference,
// Eq. 26).
package extract

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"pdnsim/internal/bem"
	"pdnsim/internal/circuit"
	"pdnsim/internal/diag"
	"pdnsim/internal/mat"
	"pdnsim/internal/simerr"
)

// Network is an extracted N-node distributed equivalent circuit. The first
// NumPorts nodes are external ports (in mesh port order); the remainder are
// interior nodes kept to preserve distributed behaviour.
type Network struct {
	NodeCells []int    // mesh cell index of each node
	PortNames []string // names of the first NumPorts nodes
	NumPorts  int

	Gamma *mat.Matrix // nodes×nodes reduced inverse-inductance Laplacian (1/H)
	G     *mat.Matrix // nodes×nodes reduced conductance Laplacian (S); nil if lossless
	C     *mat.Matrix // nodes×nodes reduced Maxwell capacitance (F)

	// LossTan adds dielectric loss to frequency-domain evaluations: every
	// capacitive coupling acquires a parallel conductance ω·tanδ·C. Zero
	// disables it. Like the skin correction, it affects Y/Zin/PortZCtx only;
	// time-domain realisations stay lossless-dielectric.
	LossTan float64

	// SkinCrossoverHz enables the frequency-dependent surface-resistance
	// correction in frequency-domain evaluations (Y, Zin, PortZCtx): above
	// this frequency the branch resistances scale as √(f/f_c), the skin
	// regime of a conductor whose thickness equals one skin depth at f_c.
	// Zero disables the correction (the paper's first-order DC resistance,
	// Eq. 13); §4.1 notes the "more sophisticated expansion" this
	// implements. Time-domain realisations (Attach) always use the DC
	// value. f_c = ρ/(π·μ0·t²) for a conductor of resistivity ρ and
	// thickness t.
	SkinCrossoverHz float64

	// Diag holds the numerical-trust trail of the extraction: symmetry and
	// positive-(semi)definiteness of the reduced C and Γ operators, and the
	// conditioning of the reduced capacitance system. Repairs (symmetrise,
	// eigenvalue clip) are recorded here; violations past the escalation
	// thresholds abort the extraction with simerr.ErrIllConditioned instead.
	Diag *diag.Diagnostics
}

// skinFactor returns the resistance multiplier at angular frequency omega.
func (n *Network) skinFactor(omega float64) float64 {
	if n.SkinCrossoverHz <= 0 {
		return 1
	}
	f := omega / (2 * math.Pi)
	if f <= n.SkinCrossoverHz {
		return 1
	}
	return math.Sqrt(f / n.SkinCrossoverHz)
}

// Branch is one equivalent-circuit branch: a series R-L in parallel with a
// capacitance, between nodes M and N. N == -1 denotes the reference plane
// (such branches are purely capacitive, paper Eq. 26).
type Branch struct {
	M, N    int
	R, L, C float64
}

// Options tune the extraction.
type Options struct {
	// ExtraNodes is the number of interior cells (beyond the ports) kept as
	// circuit nodes, uniformly subsampled over the mesh. More nodes extend
	// the upper frequency limit of the macromodel.
	ExtraNodes int
	// Regularize, when positive, applies relative diagonal loading to the
	// assembled Γ and C operators before reduction: each diagonal entry
	// grows by Regularize times the operator's mean diagonal. This is the
	// supervision escape hatch for a rank-deficient or near-singular
	// assembly (degenerate mesh, duplicated BEM rows) — a loading of
	// 1e-9…1e-6 lifts the offending eigenvalues without visibly moving the
	// extracted element values. The loading is recorded in the extraction's
	// Diag trail. Zero (the default) extracts the assembly exactly.
	Regularize float64
}

// ExtractCtx reduces an assembled plane to an equivalent circuit on the
// mesh ports plus opts.ExtraNodes interior nodes. Each reduction stage
// (inductance, capacitance, resistance) checks ctx at its boundary, so a
// timed-out extraction returns a simerr.ErrCancelled-class error within one
// stage. Internal panics surface as simerr.ErrBadInput.
//
//pdnlint:ignore ctxflow cancellation is stage-granular by design: the in-body loops are O(ports) bookkeeping between ctx-checked O(n³) factorisation stages
func ExtractCtx(ctx context.Context, a *bem.Assembly, opts Options) (nw *Network, err error) {
	defer simerr.RecoverInto(&err, "extract")
	if a == nil {
		return nil, simerr.BadInput("extract", "nil assembly")
	}
	ports := a.Mesh.PortCells()
	if len(ports) == 0 {
		return nil, simerr.BadInput("extract", "mesh has no ports; call AddPort first")
	}
	if math.IsNaN(opts.Regularize) || math.IsInf(opts.Regularize, 0) || opts.Regularize < 0 {
		return nil, simerr.BadInput("extract", "regularization must be a finite non-negative fraction, got %g", opts.Regularize)
	}
	nodeCells := selectNodes(ports, len(a.Mesh.Cells), opts.ExtraNodes)

	internal := mat.Complement(len(a.Mesh.Cells), nodeCells)

	d := diag.New()
	var gammaRed, cRed, gRed *mat.Matrix
	var gammaScale float64

	// The operator path runs the whole reduction through FFT-applied CG
	// solves (operator.go) instead of the O(n³) dense factorisations;
	// chooseSolvePath (solvepath.go) decides which one runs. Operator-path
	// failures other than cancellation (projection not SPD, CG
	// non-convergence) are recorded and fall through to the dense path.
	path := chooseSolvePath(a, opts.Regularize, nodeCells, internal)
	if path.operator {
		gammaRed, cRed, gRed, gammaScale, err = operatorReduce(ctx, a, d, nodeCells, internal)
		switch {
		case err == nil:
		case errors.Is(err, simerr.ErrCancelled):
			return nil, err
		default:
			d.Warnf("extract", "operator path", 0, 0, true,
				"Toeplitz+CG reduction failed, dense fallback used: %v", err)
			path.operator, path.why = false, "operator path failed"
		}
	}
	if !path.operator {
		gammaRed, cRed, gRed, gammaScale, err = denseReduce(ctx, a, d, opts.Regularize, nodeCells, internal)
		if err != nil {
			return nil, err
		}
	}
	recordSolvePath(d, a, path, len(nodeCells))

	// Physics-invariant guards on the reduced operators (small matrices, so
	// the eigen/condition checks cost nothing next to the O(n³) reductions).
	// Tiny violations are repaired in place and recorded; gross ones abort
	// with simerr.ErrIllConditioned carrying the measured margin. They run
	// identically on both reduction paths.
	if err := checkReduced(d, gammaRed, cRed, gRed, gammaScale); err != nil {
		return nil, err
	}

	names := make([]string, len(a.Mesh.Ports))
	for i, p := range a.Mesh.Ports {
		names[i] = p.Name
	}
	return &Network{
		NodeCells: nodeCells,
		PortNames: names,
		NumPorts:  len(ports),
		Gamma:     gammaRed,
		G:         gRed,
		C:         cRed,
		Diag:      d,
	}, nil
}

// checkReduced runs the extraction-stage trust checks: the Maxwell
// capacitance must be symmetric positive definite, the inverse-inductance
// and conductance Laplacians symmetric positive semidefinite (both carry an
// exact ones-nullspace, Γ·1 = 0), and the reduced capacitance system well
// enough conditioned that branch values have trustworthy digits. gammaScale
// is the magnitude of the unreduced Γ: the reduced Γ is Schur cancellation
// against that scale, so its PSD roundoff band must be judged relative to it
// (a fully-eliminated single-port Γ is exact zero plus noise of either sign).
func checkReduced(d *diag.Diagnostics, gamma, c, g *mat.Matrix, gammaScale float64) error {
	if err := diag.CheckSymmetric(d, "extract", "reduced C", c); err != nil {
		return err
	}
	if err := diag.CheckPSD(d, "extract", "reduced C", c); err != nil {
		return err
	}
	if err := diag.CheckSymmetric(d, "extract", "reduced Γ", gamma); err != nil {
		return err
	}
	if err := diag.CheckPSDScaled(d, "extract", "reduced Γ", gamma, gammaScale); err != nil {
		return err
	}
	if g != nil {
		if err := diag.CheckSymmetric(d, "extract", "reduced G", g); err != nil {
			return err
		}
	}
	// κ of the reduced capacitance operator: near-duplicate BEM rows (e.g. a
	// degenerate mesh) surface here as a blown-up condition estimate.
	if f, err := mat.NewLU(c); err == nil {
		if cerr := diag.CheckCond(d, "extract", "reduced C κ₁", f.Cond1Est()); cerr != nil {
			return cerr
		}
	} else {
		d.Errorf("extract", "reduced C κ₁", math.Inf(1), diag.CondFail,
			"reduced capacitance matrix is singular: %v", err)
		return &simerr.IllConditionedError{Op: "extract", Quantity: "reduced C κ₁",
			Value: math.Inf(1), Limit: diag.CondFail, Err: err}
	}
	return nil
}

// loadDiagonal adds rel times the mean diagonal entry to every diagonal
// entry of the square matrix m — the relative Tikhonov loading used by
// supervised extraction retries. Loading by a fraction of the mean diagonal
// (rather than an absolute value) keeps the perturbation dimensionless and
// meaningful for operators of any unit (1/H, F).
func loadDiagonal(m *mat.Matrix, rel float64) {
	n := m.Rows
	if n == 0 {
		return
	}
	var mean float64
	for i := 0; i < n; i++ {
		mean += m.At(i, i)
	}
	mean /= float64(n)
	shift := rel * math.Abs(mean)
	for i := 0; i < n; i++ {
		m.Add(i, i, shift)
	}
}

// denseReduce is the O(n³) reduction on the assembled dense matrices. Γ is
// Kron-reduced, Γ_red = Γ_kk − Γ_ki·x with x = Γ_ii⁻¹·Γ_ik, and the same x
// defines the Guyan interpolation W = [I; −x] (kept nodes first) that
// reduces the capacitance, C_red = Wᵀ·C·W. A plain Schur complement of C
// would treat eliminated cells as electrically floating and lose their
// charge; physically they are tied to the kept nodes through the plane's
// inductive links, which are shorts at low frequency. Guyan reduction
// preserves the total plane capacitance exactly (W maps the all-ones vector
// to the all-ones vector because Γ·1 = 0). C·W = P⁻¹·W is one k-column
// solve against the factorised P; only a regularised extraction forms the
// explicit C, whose diagonal it loads. G is reduced by the operator path's
// banded reduceConductance, so G_red is the same on both paths. gammaScale
// is ‖Γ‖∞ for checkReduced.
func denseReduce(ctx context.Context, a *bem.Assembly, d *diag.Diagnostics, reg float64, keep, internal []int) (gammaRed, cRed, gRed *mat.Matrix, gammaScale float64, err error) {
	if err := simerr.CheckCtx(ctx, "extract: inductance system"); err != nil {
		return nil, nil, nil, 0, err
	}
	gamma, err := a.InverseInductanceLaplacian()
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("extract: inductance system: %w", err)
	}
	if reg > 0 {
		loadDiagonal(gamma, reg)
		d.Warnf("extract", "regularization", reg, 0, true,
			"diagonal loading %.3g applied to Γ and C before reduction (supervised retry or explicit request)", reg)
	}
	gammaRed = gamma.Submatrix(keep, keep)
	var x *mat.Matrix
	if len(internal) > 0 {
		x, err = mat.SolveSPD(gamma.Submatrix(internal, internal), gamma.Submatrix(internal, keep))
		if err != nil {
			return nil, nil, nil, 0, fmt.Errorf("extract: inductance reduction: %w", err)
		}
		gammaRed = gammaRed.SubM(gamma.Submatrix(keep, internal).Mul(x))
	}

	if err := simerr.CheckCtx(ctx, "extract: capacitance system"); err != nil {
		return nil, nil, nil, 0, err
	}
	w := guyanInterpolant(len(keep)+len(internal), keep, internal, x)
	var cw *mat.Matrix
	if reg > 0 {
		var cFull *mat.Matrix
		if cFull, err = a.CellCapacitance(); err == nil {
			loadDiagonal(cFull, reg)
			cw = cFull.Mul(w)
		}
	} else {
		cw, err = a.ApplyCapacitance(w)
	}
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("extract: capacitance system: %w", err)
	}
	cRed = guyanCongruence(w, cw)

	if err := simerr.CheckCtx(ctx, "extract: resistance system"); err != nil {
		return nil, nil, nil, 0, err
	}
	if gRed, err = reduceConductance(a, keep, internal); err != nil {
		return nil, nil, nil, 0, fmt.Errorf("extract: resistance reduction: %w", err)
	}
	return gammaRed, cRed, gRed, mat.NormInf(gamma), nil
}

// selectNodes returns the port cells followed by up to extra interior cells
// chosen with a uniform stride over the remaining cell indices (cells are in
// raster order, so a stride gives a spatially uniform subsample).
func selectNodes(ports []int, numCells, extra int) []int {
	nodes := append([]int{}, ports...)
	if extra <= 0 {
		return nodes
	}
	isPort := make(map[int]bool, len(ports))
	for _, p := range ports {
		isPort[p] = true
	}
	avail := make([]int, 0, numCells-len(ports))
	for i := 0; i < numCells; i++ {
		if !isPort[i] {
			avail = append(avail, i)
		}
	}
	if extra >= len(avail) {
		return append(nodes, avail...)
	}
	stride := float64(len(avail)) / float64(extra)
	for i := 0; i < extra; i++ {
		nodes = append(nodes, avail[int(float64(i)*stride+stride/2)])
	}
	return nodes
}

// NumNodes returns the total node count.
func (n *Network) NumNodes() int { return len(n.NodeCells) }

// Branches enumerates the equivalent circuit (paper Fig. 2) for export into
// netlists and circuit simulators. Only physically realisable branches are
// emitted (positive R, L, C): the small sign-indefinite couplings produced
// by Kron reduction of a fully coupled system are dropped, along with
// inductive/capacitive branches below tol·diag. For exact frequency-domain
// evaluation use Y, which stamps every coupling.
func (n *Network) Branches(tol float64) []Branch {
	if tol <= 0 {
		tol = 1e-9
	}
	nn := n.NumNodes()
	var out []Branch
	gScale := n.Gamma.MaxAbs()
	cScale := n.C.MaxAbs()
	for m := 0; m < nn; m++ {
		for k := m + 1; k < nn; k++ {
			var b Branch
			b.M, b.N = m, k
			keep := false
			if g := n.Gamma.At(m, k); g < -tol*gScale {
				b.L = -1 / g
				keep = true
				if n.G != nil {
					if gg := n.G.At(m, k); gg < 0 {
						b.R = -1 / gg
					}
				}
			}
			if c := n.C.At(m, k); c < -tol*cScale {
				b.C = -c
				keep = true
			}
			if keep {
				out = append(out, b)
			}
		}
		// Row-sum capacitance to the reference plane (paper Eq. 27).
		var rowSum float64
		for k := 0; k < nn; k++ {
			rowSum += n.C.At(m, k)
		}
		if rowSum > tol*cScale {
			out = append(out, Branch{M: m, N: -1, C: rowSum})
		}
	}
	return out
}

// Y returns the nodal admittance matrix of the equivalent circuit at angular
// frequency omega: every off-diagonal coupling of the reduced matrices is
// stamped as a series R-L branch in parallel with a capacitance (paper
// Eq. 20–21), including the sign-indefinite couplings that Kron reduction of
// a fully mutual-coupled system produces. With zero loss this reproduces
// Y = Γ/(jω) + jωC exactly. Size NumNodes×NumNodes; the reference plane is
// the implicit ground.
func (n *Network) Y(omega float64) *mat.CMatrix {
	nn := n.NumNodes()
	y := mat.CNew(nn, nn)
	jw := complex(0, omega)
	// Capacitive part: jωC stamped directly (C already carries the coupling
	// to the reference in its row sums); dielectric loss appears as the
	// parallel conductance ω·tanδ·C.
	cFactor := jw
	if n.LossTan > 0 {
		cFactor = complex(omega*n.LossTan, omega)
	}
	for r := 0; r < nn; r++ {
		for c := 0; c < nn; c++ {
			y.Add(r, c, cFactor*complex(n.C.At(r, c), 0))
		}
	}
	// Inductive/resistive part: one series R-L branch per node pair, with
	// L_mn = −1/Γ_mn and R_mn = −1/G_mn (skin-corrected when enabled). The
	// diagonal is the negated branch sum, which enforces the floating
	// (zero row sum) property exactly.
	skin := n.skinFactor(omega)
	for m := 0; m < nn; m++ {
		for k := m + 1; k < nn; k++ {
			g := n.Gamma.At(m, k)
			if g == 0 {
				continue
			}
			l := -1 / g
			var r float64
			if n.G != nil {
				if gg := n.G.At(m, k); gg != 0 {
					r = -skin / gg
				}
			}
			yb := 1 / (complex(r, 0) + jw*complex(l, 0))
			y.Add(m, m, yb)
			y.Add(k, k, yb)
			y.Add(m, k, -yb)
			y.Add(k, m, -yb)
		}
	}
	return y
}

// Zin returns the input impedance seen at the given port (all other ports
// open) at angular frequency omega.
func (n *Network) Zin(port int, omega float64) (complex128, error) {
	if port < 0 || port >= n.NumPorts {
		return 0, simerr.Tagf(simerr.ErrBadInput, "extract: port %d out of range [0,%d)", port, n.NumPorts)
	}
	y := n.Y(omega)
	rhs := make([]complex128, n.NumNodes())
	rhs[port] = 1
	v, err := mat.CSolve(y, rhs)
	if err != nil {
		return 0, err
	}
	return v[port], nil
}

// PortZCtx returns the NumPorts×NumPorts open-circuit impedance matrix at
// angular frequency omega (interior nodes eliminated by the solve). The
// context is checked before the factorisation and between port-column
// solves, so a many-port evaluation inside a sweep stops promptly
// (simerr.ErrCancelled-class error) instead of finishing the whole matrix
// after its deadline. It is the natural sparam.ZFunc for supervised sweeps.
func (n *Network) PortZCtx(ctx context.Context, omega float64) (*mat.CMatrix, error) {
	if err := simerr.CheckCtx(ctx, "extract: port impedance"); err != nil {
		return nil, err
	}
	y := n.Y(omega)
	lu, err := mat.NewCLU(y)
	if err != nil {
		return nil, err
	}
	np := n.NumPorts
	z := mat.CNew(np, np)
	// Port columns are independent solves against the shared factorisation;
	// run them through the worker budget (serial when nested inside a
	// parallel sweep, or when cancellation fires first).
	errs := make([]error, np)
	mat.ParallelFor(np, func(p int) {
		if err := simerr.CheckCtx(ctx, "extract: port impedance"); err != nil {
			errs[p] = err
			return
		}
		rhs := make([]complex128, n.NumNodes())
		rhs[p] = 1
		v, err := lu.Solve(rhs)
		if err != nil {
			errs[p] = err
			return
		}
		for q := 0; q < np; q++ {
			z.Set(q, p, v[q])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return z, nil
}

// TotalCapacitance returns the summed capacitance of the reduced network to
// the reference plane (1ᵀ·C·1) — invariant under exact Kron reduction.
func (n *Network) TotalCapacitance() float64 {
	var s float64
	for _, v := range n.C.Data {
		s += v
	}
	return s
}

// Netlist renders the equivalent circuit as a SPICE-style netlist. Node 0 is
// the reference plane; circuit nodes are named n1…nN with port aliases in
// comments.
func (n *Network) Netlist(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "* %s\n", title)
	fmt.Fprintf(&b, "* %d nodes (%d ports), extracted by pdnsim\n", n.NumNodes(), n.NumPorts)
	for i, name := range n.PortNames {
		fmt.Fprintf(&b, "* port %-12s -> n%d\n", name, i+1)
	}
	node := func(i int) string {
		if i == -1 {
			return "0"
		}
		return fmt.Sprintf("n%d", i+1)
	}
	ri, li, ci := 1, 1, 1
	for _, br := range n.Branches(0) {
		switch {
		case br.L > 0 && br.R > 0:
			mid := fmt.Sprintf("m%d_%d", br.M+1, br.N+1)
			fmt.Fprintf(&b, "R%d %s %s %.6g\n", ri, node(br.M), mid, br.R)
			fmt.Fprintf(&b, "L%d %s %s %.6g\n", li, mid, node(br.N), br.L)
			ri++
			li++
		case br.L > 0:
			fmt.Fprintf(&b, "L%d %s %s %.6g\n", li, node(br.M), node(br.N), br.L)
			li++
		}
		if br.C > 0 {
			fmt.Fprintf(&b, "C%d %s %s %.6g\n", ci, node(br.M), node(br.N), br.C)
			ci++
		}
	}
	b.WriteString(".end\n")
	return b.String()
}

// zeroModeRelTol classifies an eigenvalue of Γ·x = ω²·C·x as the floating
// network's zero (common charging) mode when it is below this fraction of
// the largest eigenvalue. A connected plane's true zero mode computes to
// O(machine-epsilon × conditioning) ≲ 1e-11 relative, while the first
// physical resonance sits many decades higher, so 1e-9 splits them with
// margin on both sides.
const zeroModeRelTol = 1e-9

// Attach realises the equivalent circuit inside a circuit.Circuit netlist.
// Node i of the network becomes circuit node "<prefix>_n<i>"; the reference
// plane maps to the circuit ground. Returns the circuit node indices of the
// network's ports, in port order. Branch R-L pairs get an internal midpoint
// node per branch.
func (n *Network) Attach(c *circuit.Circuit, prefix string) ([]int, error) {
	return n.AttachTol(c, prefix, 0)
}

// AttachTol is Attach with an explicit branch-pruning tolerance: couplings
// below tol times the reduced-matrix diagonal are not realised. Large
// many-port systems use this to keep the MNA size manageable (every
// inductive branch adds a circuit unknown); tol ≤ 0 keeps everything
// physical.
func (n *Network) AttachTol(c *circuit.Circuit, prefix string, tol float64) ([]int, error) {
	nodes := make([]int, n.NumNodes())
	for i := range nodes {
		nodes[i] = c.Node(fmt.Sprintf("%s_n%d", prefix, i))
	}
	node := func(i int) int {
		if i == -1 {
			return circuit.Ground
		}
		return nodes[i]
	}
	for bi, br := range n.Branches(tol) {
		base := fmt.Sprintf("%s_b%d", prefix, bi)
		if br.L > 0 {
			// A lossless extraction would create loops of ideal inductors,
			// whose circulating DC current is indeterminate (singular MNA
			// operating point). A vanishing series resistance breaks the
			// degeneracy without affecting the response.
			r := br.R
			if r <= 0 {
				r = 1e-6
			}
			mid := c.Node(base + "_m")
			if _, err := c.AddResistor(base+"_r", node(br.M), mid, r); err != nil {
				return nil, err
			}
			if _, err := c.AddInductor(base+"_l", mid, node(br.N), br.L); err != nil {
				return nil, err
			}
		}
		if br.C > 0 {
			if _, err := c.AddCapacitor(base+"_c", node(br.M), node(br.N), br.C); err != nil {
				return nil, err
			}
		}
	}
	return nodes[:n.NumPorts], nil
}

// FindPeaks returns the indices of local maxima of mag that exceed both
// neighbours, sorted by frequency. Used to locate resonances in impedance
// sweeps (paper example 1).
func FindPeaks(mag []float64) []int {
	var peaks []int
	for i := 1; i < len(mag)-1; i++ {
		if mag[i] > mag[i-1] && mag[i] > mag[i+1] {
			peaks = append(peaks, i)
		}
	}
	sort.Ints(peaks)
	return peaks
}

// RefinePeak improves a peak estimate by parabolic interpolation through the
// three samples around index i; returns the interpolated abscissa.
func RefinePeak(x, y []float64, i int) float64 {
	if i <= 0 || i >= len(y)-1 {
		return x[i]
	}
	d1 := y[i] - y[i-1]
	d2 := y[i] - y[i+1]
	den := d1 + d2
	if den == 0 {
		return x[i]
	}
	// Assume locally uniform spacing.
	h := (x[i+1] - x[i-1]) / 2
	delta := 0.5 * (d1 - d2) / den
	if math.Abs(delta) > 1 {
		return x[i]
	}
	return x[i] + delta*h
}
