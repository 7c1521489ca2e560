package circuit

import (
	"context"
	"errors"
	"fmt"
	"math"

	"pdnsim/internal/checkpoint"
	"pdnsim/internal/diag"
	"pdnsim/internal/mat"
	"pdnsim/internal/simerr"
)

// OP computes the DC operating point. The returned vector is the full MNA
// solution: node k > 0 at index k−1, followed by branch currents. Use
// NodeVoltage to read node voltages.
//
// Transmission lines are handled by waveform relaxation on their
// characteristics (each iteration re-solves the DC system with updated line
// histories); nonlinear devices by Newton-Raphson, falling back first to
// source stepping and then to Gmin stepping when plain Newton fails.
func (c *Circuit) OP() ([]float64, error) {
	return c.OPCtx(context.Background()) //pdnlint:ignore ctxflow OP keeps its ctx-free form for the perfbench ssn-cosim workload, which calls it and may change only in a benchmark change; cancellable callers use OPCtx
}

// OPCtx is OP with cancellation: the relaxation/continuation loops check ctx
// and return a simerr.ErrCancelled-class error when it is done.
func (c *Circuit) OPCtx(ctx context.Context) ([]float64, error) {
	s := newSolver(c)
	return s.op(ctx)
}

const (
	// dcRelaxTol is the mixed absolute/relative bound on the largest
	// transmission-line DC state change between relaxation passes: nV-level
	// absolute agreement, tightened to ppb of the solution scale once
	// voltages exceed 1 V — well inside the Newton tolerances that consume
	// the operating point.
	dcRelaxTol = 1e-9
	// gminFloor ends the Gmin continuation ramp: an artificial 0.1 pS/node
	// shunt perturbs node voltages by less than the Newton voltage
	// tolerance for any realistic PDN impedance level, so the walked
	// solution is already on the true operating point.
	gminFloor = 1e-13
)

func (s *solver) op(ctx context.Context) ([]float64, error) {
	for _, tl := range s.c.mtls {
		tl.resetDC()
	}
	st := assembleState{t: 0, dt: 0, srcScale: 1}
	x := make([]float64, s.dim)
	var dcLU *mat.LU // cached factorisation for linear relaxation iterations
	for iter := 0; iter < maxDCRelax; iter++ {
		if err := simerr.CheckCtx(ctx, "circuit: OP"); err != nil {
			return nil, err
		}
		var xn []float64
		var err error
		if s.c.HasNonlinear() {
			xn, err = s.solveNewtonStep(st, x)
			if err != nil && !errors.Is(err, simerr.ErrNaN) {
				xn, err = s.opContinuation(ctx, st)
			}
			if err != nil {
				return nil, fmt.Errorf("circuit: OP: %w", err)
			}
		} else {
			// Linear DC: the matrix is iteration independent (only the
			// line histories move the RHS), so factor it once.
			if dcLU == nil {
				a := s.assembleMatrix(st)
				dcLU, err = mat.NewLU(a)
				if err != nil {
					return nil, s.singular("circuit: DC matrix", err)
				}
			}
			xn, err = dcLU.Solve(s.assembleRHS(st))
			if err != nil {
				return nil, err
			}
		}
		if err := simerr.CheckFinite("circuit: OP", 0, xn, s.unknownName); err != nil {
			return nil, err
		}
		x = xn
		if len(s.c.mtls) == 0 {
			return x, nil
		}
		var maxDelta, scale float64
		for _, tl := range s.c.mtls {
			maxDelta = math.Max(maxDelta, tl.updateDC(x))
		}
		for i := 0; i < s.nv; i++ {
			scale = math.Max(scale, math.Abs(x[i]))
		}
		if maxDelta <= dcRelaxTol*(1+scale) {
			return x, nil
		}
	}
	return nil, &simerr.NonConvergenceError{
		Op:         "circuit: transmission-line DC relaxation",
		Iterations: maxDCRelax, WorstResidual: math.NaN(), Time: 0,
	}
}

// opContinuation rescues a failed DC Newton solve. Source stepping ramps
// every independent source from 5% to 100%, reusing each solution as the
// next initial guess; if any ramp stage fails, Gmin stepping takes over:
// an artificial conductance from every node to ground is swept from 10 mS
// down to nothing, walking the solution onto the true operating point (the
// standard SPICE continuation pair).
func (s *solver) opContinuation(ctx context.Context, st assembleState) ([]float64, error) {
	xn := make([]float64, s.dim)
	var err error
	sourceOK := true
	for _, alpha := range []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0} {
		if cerr := simerr.CheckCtx(ctx, "circuit: OP source stepping"); cerr != nil {
			return nil, cerr
		}
		stA := st
		stA.srcScale = alpha
		xn, err = s.solveNewtonStep(stA, xn)
		if err != nil {
			sourceOK = false
			break
		}
		s.stats.SourceSteps++
	}
	if sourceOK {
		return xn, nil
	}
	xn = make([]float64, s.dim)
	for g := 1e-2; g >= gminFloor; g /= 10 {
		if cerr := simerr.CheckCtx(ctx, "circuit: OP Gmin stepping"); cerr != nil {
			return nil, cerr
		}
		stG := st
		stG.extraGmin = g
		xn, err = s.solveNewtonStep(stG, xn)
		if err != nil {
			return nil, fmt.Errorf("circuit: Gmin stepping failed at g=%.0e: %w", g, err)
		}
		s.stats.GminSteps++
	}
	xn, err = s.solveNewtonStep(st, xn)
	if err != nil {
		return nil, fmt.Errorf("circuit: final solve after Gmin stepping: %w", err)
	}
	return xn, nil
}

// TranOptions configure a transient analysis.
type TranOptions struct {
	Dt     float64 // uniform time step (s)
	Tstop  float64 // final time (s)
	Method Method  // integration scheme
	UIC    bool    // skip the OP and start from zero state / element ICs

	// Ctx cancels or bounds the run: the stepping loop checks it at every
	// (sub-)step and returns a simerr.ErrCancelled-class error when it is
	// done. nil means the run cannot be interrupted.
	Ctx context.Context

	// MaxHalvings bounds the adaptive Newton recovery: when a step fails to
	// converge, the solver halves the local timestep and re-attempts, up to
	// this many levels deep (local dt reaches Dt/2^MaxHalvings). Output is
	// still recorded on the uniform Dt grid. 0 selects the default (6, i.e.
	// down to Dt/64); negative disables recovery. Circuits with transmission
	// lines never sub-step (the Bergeron history needs a uniform dt).
	MaxHalvings int

	// Checkpoint, when enabled, periodically writes the full resumable run
	// state (node vector, companion state, line histories, recorded
	// waveforms) to Checkpoint.Path every Checkpoint.Every accepted steps,
	// and flushes a final snapshot when the run is cancelled mid-way. A
	// failed checkpoint write fails the run (the survivability guarantee is
	// the whole point of enabling it).
	Checkpoint checkpoint.Policy

	// ResumeFrom, when non-empty, restores a snapshot written by Checkpoint
	// and continues the run from its step instead of starting at t = 0. The
	// snapshot must come from an identical run configuration (same circuit,
	// dt, tstop, method, UIC) — any mismatch is a simerr.ErrBadInput-class
	// error. Because the snapshot carries every value the stepping loop
	// depends on — including the nonlinear devices' limiter state (diode
	// vPrev, MOSFET vgsPrev/vdsPrev) — and JSON round-trips float64 exactly,
	// a resumed run reproduces the uninterrupted run bit-for-bit
	// (checkpoint.ResumeRelTol documents the guaranteed bound).
	ResumeFrom string
}

// DefaultMaxHalvings is the default adaptive-recovery depth: a failing
// Newton step is retried at timesteps down to Dt/2^DefaultMaxHalvings.
const DefaultMaxHalvings = 6

// Result holds a transient analysis output: the time axis, every node
// voltage, and every voltage-source branch current.
type Result struct {
	Time []float64
	// Stats reports the solver effort and automatic recovery actions the
	// run needed (Newton iterations, timestep halvings, OP continuation).
	Stats SolveStats
	// Diag summarises the run's numerical trust: the conditioning of the
	// MNA factorisations and the worst per-step solve residual (after any
	// refinement corrections).
	Diag *diag.Diagnostics
	c    *Circuit
	v    [][]float64          // per time point: node voltages (index node-1)
	isrc map[string][]float64 // vsource name → current waveform
}

// V returns the waveform of the given node index.
func (r *Result) V(node int) []float64 {
	out := make([]float64, len(r.Time))
	if node == Ground {
		return out
	}
	for i, xv := range r.v {
		out[i] = xv[node-1]
	}
	return out
}

// VByName returns the waveform of the named node.
func (r *Result) VByName(name string) ([]float64, error) {
	n, ok := r.c.LookupNode(name)
	if !ok {
		return nil, simerr.Tagf(simerr.ErrBadInput, "circuit: unknown node %q", name)
	}
	return r.V(n), nil
}

// SourceCurrent returns the branch-current waveform of a named voltage
// source (positive current flows from its + terminal through the source).
func (r *Result) SourceCurrent(name string) ([]float64, error) {
	w, ok := r.isrc[name]
	if !ok {
		return nil, simerr.Tagf(simerr.ErrBadInput, "circuit: unknown voltage source %q", name)
	}
	return w, nil
}

// Tran runs a fixed-step transient analysis. Output is recorded on the
// uniform Dt grid; when a Newton solve fails to converge at a step, the
// solver automatically retries with locally halved timesteps (see
// TranOptions.MaxHalvings) before giving up.
func (c *Circuit) Tran(opts TranOptions) (*Result, error) {
	if opts.Dt <= 0 || opts.Tstop <= 0 || opts.Tstop < opts.Dt ||
		math.IsNaN(opts.Dt) || math.IsNaN(opts.Tstop) || math.IsInf(opts.Tstop, 0) {
		return nil, &simerr.BadInputError{Op: "circuit: transient",
			Detail: fmt.Sprintf("invalid window dt=%g tstop=%g", opts.Dt, opts.Tstop)}
	}
	for _, tl := range c.mtls {
		if td := tl.MinDelay(); td < opts.Dt {
			return nil, &simerr.BadInputError{Op: "circuit: transient",
				Detail: fmt.Sprintf("time step %g exceeds line %s delay %g", opts.Dt, tl.Name(), td)}
		}
	}
	maxHalvings := opts.MaxHalvings
	if maxHalvings == 0 {
		maxHalvings = DefaultMaxHalvings
	}
	if maxHalvings < 0 || len(c.mtls) > 0 {
		// Bergeron line histories are sampled on a uniform grid, so lines
		// disable local sub-stepping.
		maxHalvings = 0
	}
	s := newSolver(c)
	nSteps := int(math.Round(opts.Tstop / opts.Dt))
	res := &Result{c: c, isrc: make(map[string][]float64)}
	record := func(t float64, xv []float64) {
		res.Time = append(res.Time, t)
		nv := make([]float64, s.nv)
		copy(nv, xv[:s.nv])
		res.v = append(res.v, nv)
		for _, vs := range c.vsources {
			res.isrc[vs.name] = append(res.isrc[vs.name], xv[vs.branch])
		}
	}
	// Companion state.
	capCurr := make([]float64, len(c.capacitors))
	indVolt := make([]float64, len(c.inductors))

	var x []float64
	startStep := 0
	if opts.ResumeFrom != "" {
		snap, err := restoreTranSnapshot(opts.ResumeFrom, opts, s)
		if err != nil {
			return nil, fmt.Errorf("circuit: transient resume: %w", err)
		}
		x, startStep = applyTranSnapshot(snap, s, capCurr, indVolt, res)
	} else {
		if opts.UIC {
			x = make([]float64, s.dim)
			for _, tl := range c.mtls {
				tl.resetDC()
			}
			for _, l := range c.inductors {
				x[l.branch] = l.IC
			}
		} else {
			var err error
			x, err = s.op(opts.Ctx)
			if err != nil {
				return nil, fmt.Errorf("circuit: transient OP: %w", err)
			}
		}
		for _, tl := range c.mtls {
			tl.startTran()
		}
		record(0, x)
	}

	// Checkpointing only ever serialises a copy of the state at the last
	// *recorded* uniform step: the live x/companion slices are mutated in
	// place, and an abandoned step can leave them mid-halving, off the grid.
	ckpt := opts.Checkpoint
	var lastGood *tranState
	if ckpt.Enabled() {
		lastGood = captureTranState(c, startStep, x, capCurr, indVolt)
	}

	// advance integrates one step from t0 to t0+dt, recursively halving the
	// local timestep (bounded by maxHalvings) when Newton fails to converge.
	// On success it commits the solution and companion state for t0+dt.
	var advance func(t0, dt float64, depth int) error
	advance = func(t0, dt float64, depth int) error {
		if err := simerr.CheckCtx(opts.Ctx, "circuit: transient"); err != nil {
			return err
		}
		t1 := t0 + dt
		st := assembleState{
			t: t1, dt: dt, method: opts.Method, srcScale: 1,
			prevX: x, capCurr: capCurr, indVolt: indVolt,
		}
		var xn []float64
		var err error
		if c.HasNonlinear() {
			xn, err = s.solveNewtonStep(st, x)
		} else {
			xn, err = s.solveLinearStep(st)
		}
		if err != nil {
			if depth < maxHalvings && errors.Is(err, simerr.ErrNonConvergence) {
				s.stats.StepRetries++
				s.stats.StepHalvings++
				if depth+1 > s.stats.MaxHalvingDepth {
					s.stats.MaxHalvingDepth = depth + 1
				}
				if err := advance(t0, dt/2, depth+1); err != nil {
					return err
				}
				return advance(t0+dt/2, dt/2, depth+1)
			}
			return err
		}
		if err := simerr.CheckFinite("circuit: transient", t1, xn, s.unknownName); err != nil {
			return err
		}
		// Commit companion state for the step actually taken.
		for i, cp := range c.capacitors {
			vNew := NodeVoltage(xn, cp.A) - NodeVoltage(xn, cp.B)
			vOld := NodeVoltage(x, cp.A) - NodeVoltage(x, cp.B)
			if opts.Method == Trapezoidal {
				capCurr[i] = 2*cp.C/dt*(vNew-vOld) - capCurr[i]
			} else {
				capCurr[i] = cp.C / dt * (vNew - vOld)
			}
		}
		for i, l := range c.inductors {
			indVolt[i] = NodeVoltage(xn, l.A) - NodeVoltage(xn, l.B)
		}
		for _, tl := range c.mtls {
			tl.recordStep(xn, t1, dt)
		}
		x = xn
		return nil
	}

	for n := startStep + 1; n <= nSteps; n++ {
		t := float64(n) * opts.Dt
		if err := advance(float64(n-1)*opts.Dt, opts.Dt, 0); err != nil {
			if ckpt.Enabled() && lastGood != nil && errors.Is(err, simerr.ErrCancelled) {
				// Flush a final snapshot so the interrupted run is resumable.
				// Numerical failures deliberately do not flush: re-running the
				// same arithmetic from the same state fails the same way.
				if serr := saveTranSnapshot(ckpt.Path, opts, s, lastGood, res); serr != nil {
					return nil, fmt.Errorf("circuit: transient cancelled at t=%g and checkpoint flush failed: %w",
						t, errors.Join(err, serr))
				}
			}
			return nil, fmt.Errorf("circuit: transient failed at t=%g: %w", t, err)
		}
		s.stats.Steps++
		record(t, x)
		if ckpt.Enabled() {
			lastGood = captureTranState(c, n, x, capCurr, indVolt)
			if ckpt.Due(n) {
				if err := saveTranSnapshot(ckpt.Path, opts, s, lastGood, res); err != nil {
					return nil, fmt.Errorf("circuit: transient checkpoint at t=%g: %w", t, err)
				}
			}
		}
	}
	if ckpt.Enabled() && lastGood != nil {
		// Final snapshot: a resume of a completed run returns immediately.
		if err := saveTranSnapshot(ckpt.Path, opts, s, lastGood, res); err != nil {
			return nil, fmt.Errorf("circuit: transient final checkpoint: %w", err)
		}
	}
	res.Stats = s.stats
	res.Diag = tranDiagnostics(s.stats)
	return res, nil
}

// stepResidualWarn is the per-step relative residual above which a transient
// result is flagged as degraded (residuals this large survive even the
// refinement pass, so the factorisation itself is losing digits). Expressed
// as a multiple of the refinement stopping target: six decades of headroom
// above what a healthy factorisation delivers.
const stepResidualWarn = 1e6 * mat.RefineTarget

// tranDiagnostics summarises the solver's trust tracking. MNA conditioning
// never escalates to an error here: gshunt-regularised matrices carry
// legitimately huge κ (a 1e-12 S shunt against kS conductances) while their
// solves stay accurate — the residual is the authoritative signal.
func tranDiagnostics(stats SolveStats) *diag.Diagnostics {
	d := diag.New()
	if c := stats.CondEstimate; c > diag.CondWarn {
		d.Warnf("circuit", "MNA κ₁ estimate", c, diag.CondWarn, stats.RefinedSteps > 0,
			"condition estimate %.3g; per-step residuals are being tracked", c)
	} else if c > 0 {
		d.Infof("circuit", "MNA κ₁ estimate", c, diag.CondWarn, "condition estimate %.3g", c)
	}
	if n := stats.LowRankSolves + stats.FullSolves; n > 0 {
		d.Infof("circuit", "Newton solve path", float64(stats.LowRankSolves), float64(n),
			"%d of %d Newton iterations solved as a rank-k correction of the cached device-free factor (largest k %d), %d by full factorisation",
			stats.LowRankSolves, n, stats.MaxRank, stats.FullSolves)
	}
	if fb := stats.FallbackSingular + stats.FallbackCond + stats.FallbackResidual; fb > 0 {
		d.Warnf("circuit", "Newton low-rank fallback", float64(fb), 0, true,
			"%d steps fell back to the full factorisation (%d singular, %d capacitance κ₁ past %.0e, %d residual past %.0e)",
			fb, stats.FallbackSingular, stats.FallbackCond, lowRankCondMax, stats.FallbackResidual, stepRefineThreshold)
	}
	if r := stats.WorstStepResidual; r > stepResidualWarn {
		d.Warnf("circuit", "step residual", r, stepResidualWarn, stats.RefinedSteps > 0,
			"worst per-step relative residual %.3g (%d steps refined)", r, stats.RefinedSteps)
	} else {
		d.Infof("circuit", "step residual", r, stepResidualWarn,
			"worst per-step relative residual %.3g (%d steps refined)", r, stats.RefinedSteps)
	}
	return d
}

// ACResult is the complex solution of one AC frequency point.
type ACResult struct {
	Omega float64
	c     *Circuit
	x     []complex128
}

// V returns the complex node voltage.
func (r *ACResult) V(node int) complex128 {
	if node == Ground {
		return 0
	}
	return r.x[node-1]
}

// VByName returns the complex voltage of a named node.
func (r *ACResult) VByName(name string) (complex128, error) {
	n, ok := r.c.LookupNode(name)
	if !ok {
		return 0, simerr.Tagf(simerr.ErrBadInput, "circuit: unknown node %q", name)
	}
	return r.V(n), nil
}

// AC solves the small-signal frequency response at angular frequency omega.
// Sources contribute their AC magnitudes; switches take their t = 0 state;
// nonlinear devices are linearised around the DC operating point.
func (c *Circuit) AC(omega float64) (*ACResult, error) {
	if !(omega > 0) || math.IsInf(omega, 0) {
		return nil, &simerr.BadInputError{Op: "circuit: AC",
			Detail: fmt.Sprintf("requires a positive finite frequency, got ω=%g", omega)}
	}
	s := newSolver(c)
	a := mat.CNew(s.dim, s.dim)
	rhs := make([]complex128, s.dim)
	jw := complex(0, omega)

	cstamp := func(i, j int, v complex128) {
		if i >= 0 && j >= 0 {
			a.Add(i, j, v)
		}
	}
	cond := func(na, nb int, g complex128) {
		i, j := nodeRow(na), nodeRow(nb)
		cstamp(i, i, g)
		cstamp(j, j, g)
		cstamp(i, j, -g)
		cstamp(j, i, -g)
	}
	for i := 0; i < s.nv; i++ {
		a.Add(i, i, complex(gshunt, 0))
	}
	for _, r := range c.resistors {
		cond(r.A, r.B, complex(1/r.R, 0))
	}
	for _, sw := range c.switches {
		cond(sw.A, sw.B, complex(sw.Conductance(0), 0))
	}
	for _, cp := range c.capacitors {
		cond(cp.A, cp.B, jw*complex(cp.C, 0))
	}
	for _, l := range c.inductors {
		i, j, b := nodeRow(l.A), nodeRow(l.B), l.branch
		cstamp(i, b, 1)
		cstamp(j, b, -1)
		cstamp(b, i, 1)
		cstamp(b, j, -1)
		a.Add(b, b, -jw*complex(l.L, 0))
	}
	for _, m := range c.mutuals {
		a.Add(m.L1.branch, m.L2.branch, -jw*complex(m.M, 0))
		a.Add(m.L2.branch, m.L1.branch, -jw*complex(m.M, 0))
	}
	for _, v := range c.vsources {
		i, j, b := nodeRow(v.A), nodeRow(v.B), v.branch
		cstamp(i, b, 1)
		cstamp(j, b, -1)
		cstamp(b, i, 1)
		cstamp(b, j, -1)
		rhs[b] = complex(v.W.AC(), 0)
	}
	for _, src := range c.isources {
		iv := complex(src.W.AC(), 0)
		if r := nodeRow(src.A); r >= 0 {
			rhs[r] -= iv
		}
		if r := nodeRow(src.B); r >= 0 {
			rhs[r] += iv
		}
	}
	for _, g := range c.vccs {
		ia, ib := nodeRow(g.A), nodeRow(g.B)
		cp, cn := nodeRow(g.CP), nodeRow(g.CN)
		cstamp(ia, cp, complex(g.Gm, 0))
		cstamp(ia, cn, complex(-g.Gm, 0))
		cstamp(ib, cp, complex(-g.Gm, 0))
		cstamp(ib, cn, complex(g.Gm, 0))
	}
	for _, e := range c.vcvs {
		ia, ib, bb := nodeRow(e.A), nodeRow(e.B), e.branch
		cp, cn := nodeRow(e.CP), nodeRow(e.CN)
		cstamp(ia, bb, 1)
		cstamp(ib, bb, -1)
		cstamp(bb, ia, 1)
		cstamp(bb, ib, -1)
		cstamp(bb, cp, complex(-e.Gain, 0))
		cstamp(bb, cn, complex(e.Gain, 0))
	}
	for _, tl := range c.mtls {
		stampMTLAC(a, s.dim, tl, omega)
	}
	if c.HasNonlinear() {
		// Linearise the devices around the operating point.
		op, err := c.OP()
		if err != nil {
			return nil, fmt.Errorf("circuit: AC operating point: %w", err)
		}
		g := mat.New(s.dim, s.dim)
		scratch := make([]float64, s.dim)
		stp := &Stamper{n: s.dim, a: g.Data, rhs: scratch}
		for _, d := range c.devices {
			d.Load(stp, op)
		}
		for i := 0; i < s.dim; i++ {
			for j := 0; j < s.dim; j++ {
				if v := g.At(i, j); v != 0 {
					a.Add(i, j, complex(v, 0))
				}
			}
		}
	}
	x, err := mat.CSolve(a, rhs)
	if err != nil {
		return nil, fmt.Errorf("circuit: AC solve at ω=%g: %w", omega, s.singular("circuit: AC matrix", err))
	}
	return &ACResult{Omega: omega, c: c, x: x}, nil
}

// stampMTLAC stamps the exact frequency-domain admittance of a lossless MTL:
// per mode, Y11 = −j·cot(ωτ)/Z, Y12 = j/(Z·sin(ωτ)), transformed to terminal
// coordinates with TI and TVInv.
// mtlResonanceGuard keeps the modal admittance finite at the internal
// half-wave resonances ωτ = kπ where sin(ωτ) = 0: a 1e-9 rad nudge caps
// |Y| near 1e9/Z — far beyond any physical stub Q — without visibly
// shifting off-resonance points.
const mtlResonanceGuard = 1e-9

func stampMTLAC(a *mat.CMatrix, dim int, tl *MTL, omega float64) {
	n := tl.Modes()
	y11 := make([]complex128, n)
	y12 := make([]complex128, n)
	for k := 0; k < n; k++ {
		theta := omega * tl.Td[k]
		s := math.Sin(theta)
		if math.Abs(s) < mtlResonanceGuard {
			// Perturb away from the internal resonance singularity.
			theta += mtlResonanceGuard
			s = math.Sin(theta)
		}
		ct := math.Cos(theta) / s
		y11[k] = complex(0, -ct/tl.Z[k])
		y12[k] = complex(0, 1/(tl.Z[k]*s))
	}
	t11 := transformModalY(tl, y11)
	t12 := transformModalY(tl, y12)
	stampPortYBlockC(a, dim, tl.End1, tl.Ref1, tl.End1, tl.Ref1, t11)
	stampPortYBlockC(a, dim, tl.End2, tl.Ref2, tl.End2, tl.Ref2, t11)
	stampPortYBlockC(a, dim, tl.End1, tl.Ref1, tl.End2, tl.Ref2, t12)
	stampPortYBlockC(a, dim, tl.End2, tl.Ref2, tl.End1, tl.Ref1, t12)
}

// transformModalY returns TI·diag(ym)·TVInv as a complex matrix.
func transformModalY(tl *MTL, ym []complex128) [][]complex128 {
	n := tl.Modes()
	out := make([][]complex128, n)
	for j := 0; j < n; j++ {
		out[j] = make([]complex128, n)
		for k := 0; k < n; k++ {
			var v complex128
			for m := 0; m < n; m++ {
				v += complex(tl.TI[j][m], 0) * ym[m] * complex(tl.TVInv[m][k], 0)
			}
			out[j][k] = v
		}
	}
	return out
}

// stampPortYBlockC stamps current into (rowNodes, rowRef) ports driven by the
// voltages of (colNodes, colRef) ports through the port matrix y.
func stampPortYBlockC(a *mat.CMatrix, dim int, rowNodes []int, rowRef int,
	colNodes []int, colRef int, y [][]complex128) {
	_ = dim
	rr := nodeRow(rowRef)
	cr := nodeRow(colRef)
	add := func(i, j int, v complex128) {
		if i >= 0 && j >= 0 {
			a.Add(i, j, v)
		}
	}
	for j := range rowNodes {
		nj := nodeRow(rowNodes[j])
		var rowSum complex128
		for k := range colNodes {
			nk := nodeRow(colNodes[k])
			add(nj, nk, y[j][k])
			add(rr, nk, -y[j][k])
			rowSum += y[j][k]
		}
		add(nj, cr, -rowSum)
		add(rr, cr, rowSum)
	}
}
