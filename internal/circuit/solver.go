package circuit

import (
	"errors"
	"fmt"
	"math"

	"pdnsim/internal/diag"
	"pdnsim/internal/mat"
	"pdnsim/internal/simerr"
)

// Method selects the transient integration scheme (paper §5.1: "both first
// order and second order integration methods are used").
type Method int

const (
	// Trapezoidal is the second-order scheme (default).
	Trapezoidal Method = iota
	// BackwardEuler is the first-order scheme.
	BackwardEuler
)

func (m Method) String() string {
	if m == BackwardEuler {
		return "backward-euler"
	}
	return "trapezoidal"
}

// Newton/solver tolerances.
const (
	vAbsTol    = 1e-6
	vRelTol    = 1e-3
	maxNewton  = 100
	maxDCRelax = 400
)

// SolveStats reports the effort and automatic recovery actions of one
// analysis run: Newton workload, adaptive timestep halvings taken to ride
// through stiff regions, and the continuation steps the DC operating point
// needed. Read it from Result.Stats after a transient.
type SolveStats struct {
	Steps            int // accepted full time steps
	NewtonIterations int // total Newton iterations across all solves
	WorstNewtonIters int // worst iteration count of a single successful solve
	StepRetries      int // solves that failed and were retried at a smaller dt
	StepHalvings     int // timestep halvings performed during recovery
	MaxHalvingDepth  int // deepest halving level reached (local dt = Dt/2^depth)
	SourceSteps      int // source-stepping continuation solves in the OP
	GminSteps        int // Gmin-stepping continuation solves in the OP

	// Numerical-trust tracking: every time-point solve measures its
	// relative residual ‖b − A·x‖∞/(‖A‖∞·‖x‖∞ + ‖b‖∞); solves above the
	// refinement threshold get one iterative-refinement pass through the
	// cached factorisation.
	WorstStepResidual float64 // worst per-step relative residual (after refinement)
	RefinedSteps      int     // steps that took a refinement correction
	CondEstimate      float64 // worst κ₁ estimate across MNA factorisations

	// Newton solve path (DESIGN.md §5m): a transient Newton iteration is
	// solved as a rank-k correction of the cached device-free factor; the
	// DC operating point, corrections with 2k > n and fallbacks take a full
	// factorisation. A fallback finishes its step on the full path.
	LowRankSolves    int // Newton iterations solved as a low-rank correction
	FullSolves       int // Newton iterations solved by a full factorisation
	MaxRank          int // largest correction rank k (MNA rows the devices touch)
	FallbackSingular int // steps whose device-free or capacitance matrix was singular
	FallbackCond     int // steps whose capacitance matrix κ₁ passed lowRankCondMax
	FallbackResidual int // steps whose low-rank solution failed the acceptance residual
}

// solver holds the sized MNA system for one circuit.
type solver struct {
	c   *Circuit
	nv  int // node unknowns (nodes minus ground)
	dim int // nv + branch unknowns

	fac   *mnaFactor // factor cache shared by the linear and Newton steps
	swNow []bool     // switch states at the time being solved

	// Newton buffers, allocated on first use and reused by every
	// iteration: work is the full assembled matrix of a full solve, delta
	// the device stamps of a low-rank one (non-zero only in the rows stp
	// recorded), rhs the iteration's right-hand side, workLU and capLU the
	// full and k×k factors, capBuf the capacitance system's storage.
	work, delta *mat.Matrix
	rhs         []float64
	stp         Stamper
	workLU      mat.LU
	capLU       mat.LU
	capBuf      []float64

	stats SolveStats
}

// mnaFactor is the factor cache of the transient steps: the device-free MNA
// matrix A0 of one key, its LU factor, per-row ∞-norm sums and the columns
// of the Newton low-rank correction. The key is everything assembleMatrix
// reads: step size, method, Gmin-stepping conductance and switch states.
type mnaFactor struct {
	dt        float64
	method    Method
	extraGmin float64
	swState   []bool

	a      *mat.Matrix // A0
	lu     *mat.LU     // nil when A0 would not factor; err says why
	err    error
	rowAbs []float64 // Σ_j |A0_ij| per row i
	normA  float64   // ‖A0‖∞, the largest rowAbs
	// w[r] = A0⁻¹·e_r, solved the first time a device touches row r under
	// this key. Each column is a pure function of the key, so when it is
	// computed changes no result: a resumed run stays bitwise.
	w [][]float64
}

// matches reports whether f was built for st's key at switch states sw.
func (f *mnaFactor) matches(st assembleState, sw []bool) bool {
	//pdnlint:ignore floateq cache-key identity test: a bitwise-different dt or Gmin must invalidate the cached factorisation, tolerance would reuse a stale matrix
	return f.dt == st.dt && f.extraGmin == st.extraGmin && f.method == st.method && equalBools(sw, f.swState)
}

// unknownName maps an MNA unknown index to a readable name: node unknowns
// get their node name, branch unknowns the element whose current they carry.
func (s *solver) unknownName(i int) string {
	if i >= 0 && i < s.nv {
		return s.c.names[i+1]
	}
	for _, l := range s.c.inductors {
		if l.branch == i {
			return "i(" + l.name + ")"
		}
	}
	for _, v := range s.c.vsources {
		if v.branch == i {
			return "i(" + v.name + ")"
		}
	}
	for _, e := range s.c.vcvs {
		if e.branch == i {
			return "i(" + e.name + ")"
		}
	}
	return fmt.Sprintf("branch %d", i)
}

// singular wraps a factorisation failure in a typed simerr.SingularError,
// naming the offending unknown when the dead pivot column is known.
func (s *solver) singular(op string, err error) error {
	out := &simerr.SingularError{Op: op, Row: -1, Err: err}
	var se *mat.SingularError
	if errors.As(err, &se) {
		out.Row = se.Col
		out.Node = s.unknownName(se.Col)
	}
	return out
}

func newSolver(c *Circuit) *solver {
	s := &solver{c: c, nv: c.NumNodes() - 1}
	nb := 0
	for _, l := range c.inductors {
		l.branch = s.nv + nb
		nb++
	}
	for _, v := range c.vsources {
		v.branch = s.nv + nb
		nb++
	}
	for _, e := range c.vcvs {
		e.branch = s.nv + nb
		nb++
	}
	s.dim = s.nv + nb
	return s
}

// nodeRow maps a circuit node index to its MNA row (-1 for ground).
func nodeRow(node int) int { return node - 1 }

// stampNode adds v to a[row][col] when both indices are non-ground.
func stamp(a []float64, dim, r, c int, v float64) {
	if r >= 0 && c >= 0 {
		a[r*dim+c] += v
	}
}

// assembleState carries the per-step context for matrix/RHS assembly.
type assembleState struct {
	t         float64 // evaluation time
	dt        float64 // 0 ⇒ DC (caps open, inductors short)
	method    Method
	srcScale  float64 // source continuation factor (1 normally)
	extraGmin float64 // Gmin-stepping continuation conductance (0 normally)

	// previous-step state for companion models
	prevX   []float64
	capCurr []float64 // previous capacitor currents (trapezoidal)
	indVolt []float64 // previous inductor branch voltages (trapezoidal)
}

// assembleMatrix fills the dense MNA matrix for the current switch states
// and integration step. Devices are NOT included (they are stamped per
// Newton iteration).
// gshunt is a tiny conductance from every node to ground that keeps the DC
// matrix non-singular for capacitively floating nodes (the standard SPICE
// GSHUNT convergence aid).
const gshunt = 1e-12

func (s *solver) assembleMatrix(st assembleState) *mat.Matrix {
	a := mat.New(s.dim, s.dim)
	ad := a.Data
	for i := 0; i < s.nv; i++ {
		ad[i*s.dim+i] += gshunt + st.extraGmin
	}
	// Resistors.
	for _, r := range s.c.resistors {
		g := 1 / r.R
		i, j := nodeRow(r.A), nodeRow(r.B)
		stamp(ad, s.dim, i, i, g)
		stamp(ad, s.dim, j, j, g)
		stamp(ad, s.dim, i, j, -g)
		stamp(ad, s.dim, j, i, -g)
	}
	// Switches at time t.
	for _, sw := range s.c.switches {
		g := sw.Conductance(st.t)
		i, j := nodeRow(sw.A), nodeRow(sw.B)
		stamp(ad, s.dim, i, i, g)
		stamp(ad, s.dim, j, j, g)
		stamp(ad, s.dim, i, j, -g)
		stamp(ad, s.dim, j, i, -g)
	}
	// Capacitors: companion conductance (transient only).
	if st.dt > 0 {
		for _, cp := range s.c.capacitors {
			geq := cp.C / st.dt
			if st.method == Trapezoidal {
				geq = 2 * cp.C / st.dt
			}
			i, j := nodeRow(cp.A), nodeRow(cp.B)
			stamp(ad, s.dim, i, i, geq)
			stamp(ad, s.dim, j, j, geq)
			stamp(ad, s.dim, i, j, -geq)
			stamp(ad, s.dim, j, i, -geq)
		}
	}
	// Inductors: KCL incidence and branch equations.
	mcoef := 1.0
	if st.dt > 0 {
		mcoef = 1 / st.dt
		if st.method == Trapezoidal {
			mcoef = 2 / st.dt
		}
	}
	for _, l := range s.c.inductors {
		i, j, b := nodeRow(l.A), nodeRow(l.B), l.branch
		stamp(ad, s.dim, i, b, 1)
		stamp(ad, s.dim, j, b, -1)
		stamp(ad, s.dim, b, i, 1)
		stamp(ad, s.dim, b, j, -1)
		if st.dt > 0 {
			ad[b*s.dim+b] -= mcoef * l.L
		}
		// DC: branch row is v_a − v_b = 0 (short) — no self term.
	}
	if st.dt > 0 {
		for _, m := range s.c.mutuals {
			b1, b2 := m.L1.branch, m.L2.branch
			ad[b1*s.dim+b2] -= mcoef * m.M
			ad[b2*s.dim+b1] -= mcoef * m.M
		}
	}
	// Voltage sources.
	for _, v := range s.c.vsources {
		i, j, b := nodeRow(v.A), nodeRow(v.B), v.branch
		stamp(ad, s.dim, i, b, 1)
		stamp(ad, s.dim, j, b, -1)
		stamp(ad, s.dim, b, i, 1)
		stamp(ad, s.dim, b, j, -1)
	}
	// Controlled sources.
	for _, g := range s.c.vccs {
		ia, ib := nodeRow(g.A), nodeRow(g.B)
		cp, cn := nodeRow(g.CP), nodeRow(g.CN)
		stamp(ad, s.dim, ia, cp, g.Gm)
		stamp(ad, s.dim, ia, cn, -g.Gm)
		stamp(ad, s.dim, ib, cp, -g.Gm)
		stamp(ad, s.dim, ib, cn, g.Gm)
	}
	for _, e := range s.c.vcvs {
		ia, ib, b := nodeRow(e.A), nodeRow(e.B), e.branch
		cp, cn := nodeRow(e.CP), nodeRow(e.CN)
		stamp(ad, s.dim, ia, b, 1)
		stamp(ad, s.dim, ib, b, -1)
		stamp(ad, s.dim, b, ia, 1)
		stamp(ad, s.dim, b, ib, -1)
		stamp(ad, s.dim, b, cp, -e.Gain)
		stamp(ad, s.dim, b, cn, e.Gain)
	}
	// Transmission lines: Norton conductance at both ends.
	for _, tl := range s.c.mtls {
		s.stampMTLMatrix(ad, tl)
	}
	return a
}

// stampMTLMatrix stamps the characteristic-admittance matrix of an MTL at
// both ends: Y0 = TI·diag(1/Z)·TVinv, referenced to the end's reference
// node.
func (s *solver) stampMTLMatrix(ad []float64, tl *MTL) {
	n := len(tl.End1)
	y0 := make([][]float64, n)
	for j := 0; j < n; j++ {
		y0[j] = make([]float64, n)
		for k := 0; k < n; k++ {
			var v float64
			for m := 0; m < n; m++ {
				v += tl.TI[j][m] / tl.Z[m] * tl.TVInv[m][k]
			}
			y0[j][k] = v
		}
	}
	s.stampPortY(ad, tl.End1, tl.Ref1, y0)
	s.stampPortY(ad, tl.End2, tl.Ref2, y0)
}

// stampPortY stamps an N×N port-referenced conductance matrix: current into
// conductor j is Σ_k Y[j][k]·(V(nodes[k]) − V(ref)).
func (s *solver) stampPortY(ad []float64, nodes []int, ref int, y [][]float64) {
	r := nodeRow(ref)
	for j := range nodes {
		nj := nodeRow(nodes[j])
		var rowSum float64
		for k := range nodes {
			nk := nodeRow(nodes[k])
			stamp(ad, s.dim, nj, nk, y[j][k])
			stamp(ad, s.dim, r, nk, -y[j][k])
			rowSum += y[j][k]
		}
		stamp(ad, s.dim, nj, r, -rowSum)
		stamp(ad, s.dim, r, r, rowSum)
	}
}

// assembleRHS fills the right-hand side for the current time/history.
func (s *solver) assembleRHS(st assembleState) []float64 {
	rhs := make([]float64, s.dim)
	for _, src := range s.c.isources {
		iv := src.W.At(st.t) * st.srcScale
		if r := nodeRow(src.A); r >= 0 {
			rhs[r] -= iv
		}
		if r := nodeRow(src.B); r >= 0 {
			rhs[r] += iv
		}
	}
	for _, v := range s.c.vsources {
		rhs[v.branch] = v.W.At(st.t) * st.srcScale
	}
	if st.dt > 0 {
		// Capacitor companion currents.
		for ci, cp := range s.c.capacitors {
			vPrev := NodeVoltage(st.prevX, cp.A) - NodeVoltage(st.prevX, cp.B)
			var ieq float64
			if st.method == Trapezoidal {
				geq := 2 * cp.C / st.dt
				ieq = geq*vPrev + st.capCurr[ci]
			} else {
				ieq = cp.C / st.dt * vPrev
			}
			if r := nodeRow(cp.A); r >= 0 {
				rhs[r] += ieq
			}
			if r := nodeRow(cp.B); r >= 0 {
				rhs[r] -= ieq
			}
		}
		// Inductor branch histories.
		for li, l := range s.c.inductors {
			var hist float64
			if st.method == Trapezoidal {
				hist = -st.indVolt[li] - (2/st.dt)*s.fluxPrev(l, st.prevX)
			} else {
				hist = -(1 / st.dt) * s.fluxPrev(l, st.prevX)
			}
			rhs[l.branch] = hist
		}
	}
	// Transmission-line history currents.
	for _, tl := range s.c.mtls {
		s.stampMTLRHS(rhs, tl, st)
	}
	return rhs
}

// fluxPrev returns Σ_j M_ij · i_j at the previous step for inductor l
// (including its own L·i term).
func (s *solver) fluxPrev(l *Inductor, prevX []float64) float64 {
	flux := l.L * prevX[l.branch]
	for _, m := range s.c.mutuals {
		if m.L1 == l {
			flux += m.M * prevX[m.L2.branch]
		} else if m.L2 == l {
			flux += m.M * prevX[m.L1.branch]
		}
	}
	return flux
}

// stampMTLRHS injects the Bergeron history currents J = TI·diag(1/Z)·E at
// both ends of the line.
func (s *solver) stampMTLRHS(rhs []float64, tl *MTL, st assembleState) {
	n := len(tl.End1)
	e1, e2 := tl.historyAt(st.t, st.dt)
	inject := func(nodes []int, ref int, e []float64) {
		for j := 0; j < n; j++ {
			var ij float64
			for m := 0; m < n; m++ {
				ij += tl.TI[j][m] / tl.Z[m] * e[m]
			}
			// +i enters the node from the history source.
			if r := nodeRow(nodes[j]); r >= 0 {
				rhs[r] += ij
			}
			if r := nodeRow(ref); r >= 0 {
				rhs[r] -= ij
			}
		}
	}
	inject(tl.End1, tl.Ref1, e1)
	inject(tl.End2, tl.Ref2, e2)
}

// stepRefineThreshold is the per-step relative residual past which the
// solver applies one iterative-refinement correction through the cached
// factorisation before accepting the solution. Four decades above the
// refinement stopping target mat.RefineTarget (and two below
// stepResidualWarn), so refinement kicks in well before a step is flagged
// as degraded. It is also the acceptance gate of a Newton low-rank solve.
const stepRefineThreshold = 1e4 * mat.RefineTarget

// lowRankCondMax bounds the κ₁ estimate of the k×k capacitance matrix
// S = I_k + Δ_R·W of a Newton low-rank solve at the level diag flags a
// factorisation as losing digits: past it S⁻¹ amplifies roundoff enough
// that the step finishes on the full solve instead of betting on the
// residual gate. Healthy co-simulation corrections sit near κ₁ = 10².
const lowRankCondMax = diag.CondWarn

// factorFor returns the cached factorisation of the device-free MNA matrix
// for st's key, assembling and factoring it when the key changed. A
// non-finite assembly is an ErrNaN-class error; a matrix that will not
// factor is cached with lu nil and the singular error in err.
func (s *solver) factorFor(st assembleState) (*mnaFactor, error) {
	if s.swNow == nil {
		s.swNow = make([]bool, len(s.c.switches))
	}
	for i, sw := range s.c.switches {
		s.swNow[i] = sw.Ctrl(st.t)
	}
	if s.fac != nil && s.fac.matches(st, s.swNow) {
		return s.fac, nil
	}
	a := s.assembleMatrix(st)
	if !allFinite(a.Data) {
		return nil, &simerr.NaNError{Op: "circuit: MNA assembly", Time: st.t, Index: -1}
	}
	f, err := newMNAFactor(a)
	f.dt, f.method, f.extraGmin = st.dt, st.method, st.extraGmin
	f.swState = append([]bool(nil), s.swNow...)
	if err != nil {
		f.err = s.singular("circuit: MNA matrix", err)
	} else if cond := f.lu.Cond1Est(); cond > s.stats.CondEstimate {
		s.stats.CondEstimate = cond
	}
	s.fac = f
	return f, nil
}

// newMNAFactor factors a device-free MNA matrix and sums its rows. On a
// factorisation error the factor comes back with lu nil.
func newMNAFactor(a *mat.Matrix) (*mnaFactor, error) {
	n := a.Rows
	f := &mnaFactor{a: a, rowAbs: make([]float64, n), w: make([][]float64, n)}
	for i := range f.rowAbs {
		var sum float64
		for _, v := range a.Data[i*n : (i+1)*n] {
			sum += math.Abs(v)
		}
		f.rowAbs[i] = sum
		f.normA = math.Max(f.normA, sum)
	}
	lu, err := mat.NewLU(a)
	if err != nil {
		return f, err
	}
	f.lu = lu
	return f, nil
}

// solveLinearStep solves one time point of a linear circuit through the
// cached factorisation. Every solve measures its relative residual; a
// residual above stepRefineThreshold triggers one refinement pass, and the
// worst accepted residual is tracked in the stats.
func (s *solver) solveLinearStep(st assembleState) ([]float64, error) {
	f, err := s.factorFor(st)
	if err != nil {
		return nil, err
	}
	if f.lu == nil {
		return nil, f.err
	}
	rhs := s.assembleRHS(st)
	// Classify a non-finite RHS (a NaN source value, corrupted history) as
	// ErrNaN naming the unknown, before the factorisation's own guard turns
	// it into an untyped error.
	if err := simerr.CheckFinite("circuit: transient assembly", st.t, rhs, s.unknownName); err != nil {
		return nil, err
	}
	x, err := f.lu.Solve(rhs)
	if err != nil {
		return nil, err
	}
	// Per-step residual via the fast uncompensated kernel: its ~n·eps accuracy
	// sits orders of magnitude below stepRefineThreshold, and it avoids both
	// the compensated arithmetic and the O(n²) norm recomputation per step.
	res, relres := mat.ResidualVecN(f.a, x, rhs, f.normA)
	if relres > stepRefineThreshold {
		if dx, derr := f.lu.Solve(res); derr == nil {
			xn := make([]float64, len(x))
			for i := range x {
				xn[i] = x[i] + dx[i]
			}
			if _, rn := mat.ResidualVecN(f.a, xn, rhs, f.normA); rn < relres {
				x, relres = xn, rn
				s.stats.RefinedSteps++
			}
		}
	}
	if relres > s.stats.WorstStepResidual {
		s.stats.WorstStepResidual = relres
	}
	return x, nil
}

// solveNewtonStep solves one (DC or transient) time point with Newton
// iterations over the nonlinear devices. x0 is the initial guess.
//
// A transient iteration solves (A0 + Δ)·x = b, Δ the device stamps, as a
// rank-k correction of the cached factor of A0 (solveLowRank), and accepts
// the converged solution only if its residual against the full assembled
// matrix passes stepRefineThreshold. The DC operating point (its A0 leaves
// capacitively floating nodes on gshunt alone), corrections with 2k > n and
// the rest of a step after a fallback solve by a full factorisation.
//
// A non-finite iterate is classified by its cause: if the assembled system
// itself carries NaN/Inf (a non-finite source value, a corrupted element)
// the step fails immediately with simerr.ErrNaN — no retry can fix bad
// input. If the inputs are finite but the iterate explodes, that is Newton
// divergence and surfaces as simerr.ErrNonConvergence, which the adaptive
// transient loop answers with timestep halving.
func (s *solver) solveNewtonStep(st assembleState, x0 []float64) ([]float64, error) {
	rhs0 := s.assembleRHS(st)
	if err := simerr.CheckFinite("circuit: Newton assembly", st.t, rhs0, s.unknownName); err != nil {
		return nil, err
	}
	var f *mnaFactor
	var dcBase *mat.Matrix
	if st.dt > 0 {
		var err error
		if f, err = s.factorFor(st); err != nil {
			return nil, err
		}
	} else if dcBase = s.assembleMatrix(st); !allFinite(dcBase.Data) {
		return nil, &simerr.NaNError{Op: "circuit: Newton assembly", Time: st.t, Index: -1}
	}
	if s.work == nil {
		s.work, s.delta = mat.New(s.dim, s.dim), mat.New(s.dim, s.dim)
		s.rhs = make([]float64, s.dim)
		s.stp = Stamper{n: s.dim, seen: make([]bool, s.dim)}
	}
	// full routes the rest of the step through the full factorisation.
	full := f == nil
	if f != nil && f.lu == nil {
		full = true
		s.stats.FallbackSingular++
	}
	x := append([]float64{}, x0...)
	worst := math.Inf(1)
	for iter := 0; iter < maxNewton; iter++ {
		copy(s.rhs, rhs0)
		s.loadDevices(x, st, dcBase)
		lowRank := !full && 2*len(s.stp.rows) <= s.dim
		var xn []float64
		if lowRank {
			if xn = s.solveLowRank(f); xn == nil {
				lowRank, full = false, true
			}
		}
		if !lowRank {
			var err error
			if xn, err = s.solveFull(f); err != nil {
				return nil, s.singular("circuit: Newton matrix", err)
			}
		}
		if !allFinite(xn) {
			// Divergence (inputs were finite): report as non-convergence so
			// the transient loop can recover by halving the step.
			return nil, &simerr.NonConvergenceError{
				Op:         "circuit: Newton iteration diverged to non-finite values",
				Iterations: iter + 1, WorstResidual: math.Inf(1), Time: st.t,
			}
		}
		conv := true
		worst = 0
		for i := 0; i < s.nv; i++ {
			d := math.Abs(xn[i] - x[i])
			if d > worst {
				worst = d
			}
			if d > vAbsTol+vRelTol*math.Abs(xn[i]) {
				conv = false
			}
		}
		x = xn
		if conv {
			for _, d := range s.c.devices {
				if !d.Converged(x) {
					conv = false
					break
				}
			}
		}
		if conv && iter > 0 {
			// Residual of the final linearised solve against the full
			// assembled matrix: the linear-algebra trust signal, separate
			// from Newton's own update criterion. A low-rank solution that
			// fails it finishes the step on the full factorisation.
			var relres float64
			if lowRank {
				if relres = s.lowRankResidual(f, x); relres > stepRefineThreshold {
					s.stats.FallbackResidual++
					full = true
					continue
				}
			} else {
				_, relres = mat.ResidualVec(s.work, x, s.rhs)
			}
			if relres > s.stats.WorstStepResidual {
				s.stats.WorstStepResidual = relres
			}
			s.stats.NewtonIterations += iter + 1
			if iter+1 > s.stats.WorstNewtonIters {
				s.stats.WorstNewtonIters = iter + 1
			}
			return x, nil
		}
	}
	s.stats.NewtonIterations += maxNewton
	return nil, &simerr.NonConvergenceError{
		Op: "circuit: Newton iteration", Iterations: maxNewton,
		WorstResidual: worst, Time: st.t,
	}
}

// loadDevices stamps every device's linearisation around x into s.rhs and
// into a matrix: at DC (dcBase non-nil) into s.work, a fresh copy of
// dcBase, so the DC arithmetic is the plain dense one; in a transient into
// s.delta, whose rows from the previous iteration it clears first. s.stp
// records the rows written.
func (s *solver) loadDevices(x []float64, st assembleState, dcBase *mat.Matrix) {
	stp := &s.stp
	for _, r := range stp.rows {
		clear(s.delta.Data[r*s.dim : (r+1)*s.dim])
		stp.seen[r] = false
	}
	stp.rows = stp.rows[:0]
	stp.a = s.delta.Data
	if dcBase != nil {
		copy(s.work.Data, dcBase.Data)
		stp.a = s.work.Data
	}
	stp.rhs, stp.T, stp.Dt, stp.Gmin = s.rhs, st.t, st.dt, st.extraGmin
	for _, d := range s.c.devices {
		d.Load(stp, x)
	}
}

// solveFull solves the iteration by a full factorisation into the reused
// buffers. In a transient it first assembles s.work = A0 + Δ from f's A0 and
// the delta rows; at DC (f nil) loadDevices already stamped s.work.
func (s *solver) solveFull(f *mnaFactor) ([]float64, error) {
	if f != nil {
		copy(s.work.Data, f.a.Data)
		for _, r := range s.stp.rows {
			row := s.work.Data[r*s.dim : (r+1)*s.dim]
			for j, d := range s.delta.Data[r*s.dim : (r+1)*s.dim] {
				row[j] += d
			}
		}
	}
	s.stats.FullSolves++
	if err := s.workLU.Refactor(s.work); err != nil {
		return nil, err
	}
	return s.workLU.Solve(s.rhs)
}

// solveLowRank solves (A0 + E_R·Δ_R)·x = b, with R = s.stp.rows the k rows
// the devices stamped and Δ_R those rows of s.delta, as a rank-k correction
// of A0's cached factor (Sherman–Morrison–Woodbury):
//
//	y = A0⁻¹·b,  W = A0⁻¹·E_R,  S = I_k + Δ_R·W,  x = y − W·S⁻¹·(Δ_R·y).
//
// Δ_R may be non-zero outside the columns R (a MOSFET's gate column). It
// returns nil, with the reason counted, when A0⁻¹ cannot be applied, S is
// singular, or S's κ₁ estimate passes lowRankCondMax.
func (s *solver) solveLowRank(f *mnaFactor) []float64 {
	n, rows := s.dim, s.stp.rows
	k := len(rows)
	y, err := f.lu.Solve(s.rhs)
	for _, r := range rows {
		if err == nil && f.w[r] == nil {
			e := make([]float64, n)
			e[r] = 1
			f.w[r], err = f.lu.Solve(e)
		}
	}
	if err != nil {
		s.stats.FallbackSingular++
		return nil
	}
	if cap(s.capBuf) < k*k+k {
		s.capBuf = make([]float64, k*k+k)
	}
	sm := &mat.Matrix{Rows: k, Cols: k, Data: s.capBuf[:k*k]}
	t := s.capBuf[k*k : k*k+k]
	clear(s.capBuf[:k*k+k])
	for a, r := range rows {
		sa := sm.Data[a*k : (a+1)*k]
		for j, d := range s.delta.Data[r*n : (r+1)*n] {
			if d == 0 {
				continue
			}
			t[a] += d * y[j]
			for b, rb := range rows {
				sa[b] += d * f.w[rb][j]
			}
		}
		sa[a]++
	}
	if s.capLU.Refactor(sm) != nil {
		s.stats.FallbackSingular++
		return nil
	}
	if s.capLU.Cond1Est() > lowRankCondMax {
		s.stats.FallbackCond++
		return nil
	}
	z, err := s.capLU.Solve(t)
	if err != nil {
		s.stats.FallbackSingular++
		return nil
	}
	for b, rb := range rows {
		for j, w := range f.w[rb] {
			y[j] -= z[b] * w
		}
	}
	s.stats.LowRankSolves++
	s.stats.MaxRank = max(s.stats.MaxRank, k)
	return y
}

// lowRankResidual is the relative residual ‖b − A·x‖∞/(‖A‖∞·‖x‖∞ + ‖b‖∞)
// of a low-rank solution against the full assembled matrix A = A0 + Δ,
// through the uncompensated kernel solveLinearStep uses. Only the rows in
// R differ from A0, so only they are recomputed.
func (s *solver) lowRankResidual(f *mnaFactor, x []float64) float64 {
	n := s.dim
	res, _ := mat.ResidualVecN(f.a, x, s.rhs, f.normA)
	var normA float64
	for i, sum := range f.rowAbs {
		if !s.stp.seen[i] {
			normA = math.Max(normA, sum)
		}
	}
	for _, r := range s.stp.rows {
		arow := f.a.Data[r*n : (r+1)*n]
		var sum float64
		for j, d := range s.delta.Data[r*n : (r+1)*n] {
			sum += math.Abs(arow[j] + d)
			res[r] -= d * x[j]
		}
		normA = math.Max(normA, sum)
	}
	den := normA*vecNormInf(x) + vecNormInf(s.rhs)
	if den == 0 {
		return 0
	}
	return vecNormInf(res) / den
}

// vecNormInf returns max_i |v_i|.
func vecNormInf(v []float64) float64 {
	var m float64
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

// allFinite reports whether every entry of v is finite.
func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
