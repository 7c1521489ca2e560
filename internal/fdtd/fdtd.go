// Package fdtd is the 2-D finite-difference time-domain solver the paper
// uses as an independent reference for plane-pair transients (§6.1, Fig. 8).
//
// A power/ground plane pair of separation d behaves as a 2-D transmission
// line: the inter-plane voltage V(x,y,t) and the sheet currents Ix, Iy (A/m)
// obey
//
//	L′·∂Ix/∂t + R′·Ix = −∂V/∂x          L′ = μ0·d   (H per square)
//	L′·∂Iy/∂t + R′·Iy = −∂V/∂y          R′ = plane + return sheet resistance
//	C″·∂V/∂t = −(∂Ix/∂x + ∂Iy/∂y) − J   C″ = ε0εr/d (F per area)
//
// discretised on a staggered (Yee) grid with leapfrog time stepping. Plane
// edges are open circuits (magnetic walls). Ports are Thevenin sources
// (resistor in series with a voltage waveform) attached between the planes
// at a cell, integrated semi-implicitly for unconditional port stability.
package fdtd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"pdnsim/internal/checkpoint"
	"pdnsim/internal/diag"
	"pdnsim/internal/geom"
	"pdnsim/internal/greens"
	"pdnsim/internal/mat"
	"pdnsim/internal/simerr"
)

// fdtdParallelMinCells is the grid size below which the leapfrog update runs
// serially: a row stripe is ~10 flops per cell, so small grids lose more to
// goroutine dispatch than the stripes win. At ≥ 32k cells a step carries a
// few hundred kiloflops and row-striping across mat.ParallelFor's worker
// budget pays for itself.
const fdtdParallelMinCells = 1 << 15

// Port is a resistive Thevenin connection between the planes at one cell.
type Port struct {
	Name   string
	I, J   int
	R      float64
	Source func(t float64) float64 // open-circuit voltage; nil ⇒ passive load

	V []float64 // recorded inter-plane voltage per step (filled by Run)
}

// Sim is one plane-pair FDTD simulation.
//
// Field storage is flat row-major slices rather than [][]float64: one
// allocation per field, contiguous rows for the striped update loops, and no
// per-row pointer chase in the hot leapfrog kernels. v and active are Nx×Ny
// at index i·Ny+j; ix is (Nx+1)×Ny at i·Ny+j; iy is Nx×(Ny+1) at i·(Ny+1)+j.
type Sim struct {
	Nx, Ny int
	Dx, Dy float64
	Lsq    float64 // μ0·d, H per square
	Carea  float64 // ε0εr/d, F per area
	Rsq    float64 // total sheet resistance, Ω per square

	v      []float64 // Nx × Ny, cell centres
	ix     []float64 // Nx+1 × Ny, on vertical cell edges
	iy     []float64 // Nx × Ny+1, on horizontal cell edges
	active []bool    // Nx × Ny

	ports []*Port
	shape geom.Shape
	t0    float64 // accumulated simulated time across Run calls
}

// at returns the flat index of cell (i,j) in v/active.
func (s *Sim) at(i, j int) int { return i*s.Ny + j }

// New builds a simulation over the given plane shape, meshed nx×ny over the
// shape bounds, with plate separation d (m), permittivity epsR, and total
// sheet resistance rsq (Ω/sq, forward plus return plane).
func New(shape geom.Shape, nx, ny int, d, epsR, rsq float64) (s *Sim, err error) {
	defer simerr.RecoverInto(&err, "fdtd: new")
	if nx < 2 || ny < 2 {
		return nil, simerr.BadInput("fdtd: new", "grid too small: %dx%d", nx, ny)
	}
	// NaN compares false against everything, so spell the checks as
	// "not positive" rather than "≤ 0".
	if !(d > 0) || !(epsR > 0) || !(rsq >= 0) ||
		math.IsInf(d, 0) || math.IsInf(epsR, 0) || math.IsInf(rsq, 0) {
		return nil, simerr.BadInput("fdtd: new", "invalid stackup d=%g epsR=%g rsq=%g", d, epsR, rsq)
	}
	b := shape.Bounds()
	if !(b.W() > 0) || !(b.H() > 0) {
		return nil, simerr.BadInput("fdtd: new", "empty shape")
	}
	s = &Sim{
		Nx: nx, Ny: ny,
		Dx: b.W() / float64(nx), Dy: b.H() / float64(ny),
		Lsq:   greens.Mu0 * d,
		Carea: greens.Eps0 * epsR / d,
		Rsq:   rsq,
		shape: shape,
	}
	s.v = make([]float64, nx*ny)
	s.ix = make([]float64, (nx+1)*ny)
	s.iy = make([]float64, nx*(ny+1))
	s.active = make([]bool, nx*ny)
	anyActive := false
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			c := geom.Point{
				X: b.X0 + (float64(i)+0.5)*s.Dx,
				Y: b.Y0 + (float64(j)+0.5)*s.Dy,
			}
			s.active[i*ny+j] = shape.Contains(c)
			anyActive = anyActive || s.active[i*ny+j]
		}
	}
	if !anyActive {
		return nil, simerr.BadInput("fdtd: new", "no active cells; refine the grid")
	}
	return s, nil
}

// AddPort attaches a Thevenin port at the active cell nearest to p.
// source == nil makes it a passive load resistor.
func (s *Sim) AddPort(name string, p geom.Point, r float64, source func(t float64) float64) (*Port, error) {
	if !(r > 0) || math.IsInf(r, 0) {
		return nil, simerr.BadInput("fdtd: port", "port %s needs a positive finite resistance, got %g", name, r)
	}
	b := s.shape.Bounds()
	bi, bj, best := -1, -1, math.Inf(1)
	for i := 0; i < s.Nx; i++ {
		for j := 0; j < s.Ny; j++ {
			if !s.active[s.at(i, j)] {
				continue
			}
			c := geom.Point{
				X: b.X0 + (float64(i)+0.5)*s.Dx,
				Y: b.Y0 + (float64(j)+0.5)*s.Dy,
			}
			if d := c.Dist(p); d < best {
				bi, bj, best = i, j, d
			}
		}
	}
	port := &Port{Name: name, I: bi, J: bj, R: r, Source: source}
	s.ports = append(s.ports, port)
	return port, nil
}

// MaxStableDt returns the 2-D Courant limit of the grid.
func (s *Sim) MaxStableDt() float64 {
	vph := 1 / math.Sqrt(s.Lsq*s.Carea)
	return 1 / (vph * math.Sqrt(1/(s.Dx*s.Dx)+1/(s.Dy*s.Dy)))
}

// Result carries the time axis of a run; port voltages are recorded on the
// ports themselves.
type Result struct {
	Time []float64

	// Diag records the stability trail of the run: the CFL margin the step
	// was taken at and the energy-watchdog verdict.
	Diag *diag.Diagnostics
}

// ctxCheckStride is how many leapfrog steps Run advances between
// cancellation checks — cheap enough to keep cancellation latency in the
// microseconds without touching the per-step cost.
const ctxCheckStride = 64

// CFLWarnRatio is the dt/dtmax ratio past which Run records a Warning:
// the leapfrog scheme is formally stable right up to the Courant limit, but
// with no margin the dispersion error of the highest grid modes is extreme
// and roundoff can tip a marginally-resolved grid over. Exported so
// callers sizing dt can stay inside the warning band deliberately.
const CFLWarnRatio = 0.99

// WatchdogFactor is the energy-growth escalation threshold: the stored field
// energy of a passive grid can never exceed the initial energy plus the
// energy injected through the ports; past WatchdogFactor times that bound
// the run is numerically unstable and aborts with ErrIllConditioned.
const WatchdogFactor = 100.0

// RunOptions configure a survivable FDTD run.
type RunOptions struct {
	Dt    float64 // leapfrog time step (s)
	Tstop float64 // run duration (s)

	// Checkpoint, when enabled, periodically writes the full resumable grid
	// state (fields, port records, watchdog accumulators) to Checkpoint.Path
	// every Checkpoint.Every steps, and flushes a final snapshot when the run
	// is cancelled. Numerical aborts (NaN, energy watchdog) deliberately do
	// not flush: that state is poisoned and resuming it would fail again.
	Checkpoint checkpoint.Policy

	// ResumeFrom, when non-empty, restores a snapshot written by Checkpoint
	// and continues from its step instead of starting fresh. The snapshot
	// must come from an identical simulation and window (grid, stackup,
	// ports, dt, tstop) — mismatches are simerr.ErrBadInput-class errors.
	// Leapfrog stepping depends on nothing beyond the restored state, so a
	// resumed run reproduces the uninterrupted one bit-for-bit
	// (checkpoint.ResumeRelTol documents the guaranteed bound).
	ResumeFrom string
}

// Run leapfrogs the grid for opts.Tstop seconds with step opts.Dt,
// recording every port's inter-plane voltage. It checks ctx every
// ctxCheckStride steps and has a divergence guard — a non-finite port
// voltage aborts the run with a simerr.ErrNaN-class error naming the port
// and time instead of filling the record with NaNs — and two stability
// guards: an explicit CFL margin check (dt past the Courant limit is an
// ErrIllConditioned-class error carrying the ratio; dt within CFLWarnRatio of
// it records a Warning), and an energy watchdog that compares the stored
// field energy against the passivity bound E(0) + E_injected every
// ctxCheckStride steps. opts also carries run survivability: periodic
// checkpoints, a cancellation flush, and resume (see RunOptions).
func (s *Sim) Run(ctx context.Context, opts RunOptions) (*Result, error) {
	dt, tstop := opts.Dt, opts.Tstop
	if !(dt > 0) || !(tstop > dt) || math.IsInf(dt, 0) || math.IsInf(tstop, 0) {
		return nil, simerr.BadInput("fdtd: run", "invalid window dt=%g tstop=%g", dt, tstop)
	}
	d := diag.New()
	limit := s.MaxStableDt()
	cflRatio := dt / limit
	switch {
	case cflRatio > 1:
		d.Errorf("fdtd", "CFL margin", cflRatio, 1,
			"dt=%g exceeds the Courant limit %g (ratio %.4g)", dt, limit, cflRatio)
		return &Result{Diag: d}, &simerr.IllConditionedError{Op: "fdtd: run",
			Quantity: "CFL ratio dt/dtmax", Value: cflRatio, Limit: 1}
	case cflRatio > CFLWarnRatio:
		d.Warnf("fdtd", "CFL margin", cflRatio, CFLWarnRatio, false,
			"dt=%g is within %.2g%% of the Courant limit; dispersion error is extreme", dt, 100*(1-cflRatio))
	default:
		d.Infof("fdtd", "CFL margin", cflRatio, CFLWarnRatio, "dt/dtmax = %.4g", cflRatio)
	}
	steps := int(math.Round(tstop / dt))
	res := &Result{Diag: d}

	// Energy watchdog state: a passive grid can never hold more than its
	// initial energy plus what the ports delivered (eInj upper-bounds the
	// delivery by summing only inflowing midpoint power).
	startStep := 0
	var e0, eInj float64
	if opts.ResumeFrom != "" {
		snap, err := restoreFDTDSnapshot(opts.ResumeFrom, s, dt, tstop)
		if err != nil {
			return nil, fmt.Errorf("fdtd: resume: %w", err)
		}
		startStep, e0, eInj = applyFDTDSnapshot(snap, s, res)
	} else {
		for _, p := range s.ports {
			p.V = make([]float64, 0, steps+1)
			p.V = append(p.V, s.v[s.at(p.I, p.J)])
		}
		res.Time = append(res.Time, s.t0)
		e0 = s.TotalEnergy()
	}
	ckpt := opts.Checkpoint

	// Loss term, semi-implicit: (L/dt)(I⁺−I⁻) + R·(I⁺+I⁻)/2 = −∂V.
	a := s.Rsq * dt / (2 * s.Lsq)
	cI1 := (1 - a) / (1 + a)
	cI2 := dt / (s.Lsq * (1 + a))
	cellArea := s.Dx * s.Dy
	cV := dt / (s.Carea * cellArea)

	// Port cells get the resistor folded into the same voltage update
	// (semi-implicit), which keeps the leapfrog scheme passive:
	//   C″A·(V⁺−V⁻)/dt = −div − (V⁺+V⁻)/(2R) + Vs/R.
	// Port cells are masked out of the striped bulk update and handled in a
	// serial pass in ascending cell order, which keeps the parallel schedule
	// bitwise deterministic and the eInj accumulation order fixed. When two
	// ports land on one cell the last one wins, matching the historical
	// map-based coefficient table.
	type portCoef struct {
		cell int
		p    *Port
		beta float64
	}
	isPort := make([]bool, s.Nx*s.Ny)
	var coefs []portCoef
	for _, p := range s.ports {
		cell := s.at(p.I, p.J)
		if isPort[cell] {
			for k := range coefs {
				if coefs[k].cell == cell {
					coefs = append(coefs[:k], coefs[k+1:]...)
					break
				}
			}
		}
		isPort[cell] = true
		coefs = append(coefs, portCoef{cell: cell, p: p, beta: dt / (2 * p.R * s.Carea * cellArea)})
	}
	sort.Slice(coefs, func(a, b int) bool { return coefs[a].cell < coefs[b].cell })

	// Striped parallel update plan: currents first (ix rows 1..Nx-1 and iy
	// rows 0..Nx-1 are independent given v), then bulk voltages (each cell
	// reads only currents), then the serial port pass. Rows are the stripes;
	// every cell is written by exactly one stripe, so parallel and serial
	// schedules produce bitwise identical grids. Small grids skip the
	// dispatch entirely (see fdtdParallelMinCells).
	parallelGrid := s.Nx*s.Ny >= fdtdParallelMinCells
	stripes := func(n int, fn func(i int)) {
		if parallelGrid {
			mat.ParallelFor(n, fn)
			return
		}
		for i := 0; i < n; i++ {
			fn(i)
		}
	}
	nx, ny := s.Nx, s.Ny
	currentRow := func(w int) {
		if w < nx-1 {
			// ix row i = w+1: vertical-edge currents between rows i-1 and i.
			i := w + 1
			rowIx := s.ix[i*ny : i*ny+ny]
			rowV := s.v[i*ny : i*ny+ny]
			prevV := s.v[(i-1)*ny : i*ny]
			act := s.active[i*ny : i*ny+ny]
			actP := s.active[(i-1)*ny : i*ny]
			//pdn:hot
			for j := 0; j < ny; j++ {
				if actP[j] && act[j] {
					rowIx[j] = cI1*rowIx[j] - cI2*(rowV[j]-prevV[j])/s.Dx
				} else {
					rowIx[j] = 0
				}
			}
			return
		}
		// iy row i = w-(nx-1): horizontal-edge currents within row i.
		i := w - (nx - 1)
		rowIy := s.iy[i*(ny+1) : i*(ny+1)+ny+1]
		rowV := s.v[i*ny : i*ny+ny]
		act := s.active[i*ny : i*ny+ny]
		//pdn:hot
		for j := 1; j < ny; j++ {
			if act[j-1] && act[j] {
				rowIy[j] = cI1*rowIy[j] - cI2*(rowV[j]-rowV[j-1])/s.Dy
			} else {
				rowIy[j] = 0
			}
		}
	}
	voltageRow := func(i int) {
		rowV := s.v[i*ny : i*ny+ny]
		ixLo := s.ix[i*ny : i*ny+ny]
		ixHi := s.ix[(i+1)*ny : (i+1)*ny+ny]
		rowIy := s.iy[i*(ny+1) : i*(ny+1)+ny+1]
		act := s.active[i*ny : i*ny+ny]
		prt := isPort[i*ny : i*ny+ny]
		//pdn:hot
		for j := 0; j < ny; j++ {
			if !act[j] || prt[j] {
				continue
			}
			div := (ixHi[j]-ixLo[j])*s.Dy + (rowIy[j+1]-rowIy[j])*s.Dx
			rowV[j] += -cV * div
		}
	}

	for n := startStep + 1; n <= steps; n++ {
		if n%ctxCheckStride == 0 {
			if err := simerr.CheckCtx(ctx, "fdtd: run"); err != nil {
				if ckpt.Enabled() {
					// Grid state is consistent at every step boundary, so the
					// live fields at completed step n−1 flush directly.
					if serr := saveFDTDSnapshot(ckpt.Path, s, dt, tstop, s.t0, n-1, res.Time, e0, eInj); serr != nil {
						return nil, fmt.Errorf("fdtd: run cancelled and checkpoint flush failed: %w",
							errors.Join(err, serr))
					}
				}
				return nil, err
			}
			if e, bound := s.TotalEnergy(), WatchdogFactor*(e0+eInj); e > bound {
				t := s.t0 + float64(n)*dt
				d.Errorf("fdtd", "energy watchdog", e, bound,
					"field energy %.3g J at t=%g exceeds %g× the passivity bound %.3g J; scheme is unstable",
					e, t, WatchdogFactor, e0+eInj)
				return res, &simerr.IllConditionedError{Op: "fdtd: run",
					Quantity: "field energy (J)", Value: e, Limit: bound}
			}
		}
		t := s.t0 + float64(n)*dt
		// Current updates (half step earlier in leapfrog time).
		stripes((nx-1)+nx, currentRow)
		// Bulk voltage update, port cells masked out.
		stripes(nx, voltageRow)
		// Serial port pass (ascending cell order).
		for _, pc := range coefs {
			if !s.active[pc.cell] {
				continue
			}
			i, j := pc.cell/ny, pc.cell%ny
			div := (s.ix[(i+1)*ny+j]-s.ix[i*ny+j])*s.Dy + (s.iy[i*(ny+1)+j+1]-s.iy[i*(ny+1)+j])*s.Dx
			dv := -cV * div
			vs := 0.0
			if pc.p.Source != nil {
				vs = pc.p.Source(t)
			}
			vold := s.v[pc.cell]
			s.v[pc.cell] = (vold*(1-pc.beta) + dv + 2*pc.beta*vs) / (1 + pc.beta)
			// Midpoint estimate of the energy the port pushed into the grid
			// this step (inflow only — outflow tightening the bound would
			// risk false watchdog trips).
			vbar := (vold + s.v[pc.cell]) / 2
			if inj := vbar * (vs - vbar) / pc.p.R * dt; inj > 0 {
				eInj += inj
			}
		}
		for _, p := range s.ports {
			vp := s.v[s.at(p.I, p.J)]
			if math.IsNaN(vp) || math.IsInf(vp, 0) {
				return nil, &simerr.NaNError{Op: "fdtd: run", Time: t, Unknown: "v(" + p.Name + ")", Index: s.at(p.I, p.J)}
			}
			p.V = append(p.V, vp)
		}
		res.Time = append(res.Time, t)
		if ckpt.Enabled() && ckpt.Due(n) {
			if err := saveFDTDSnapshot(ckpt.Path, s, dt, tstop, s.t0, n, res.Time, e0, eInj); err != nil {
				return res, fmt.Errorf("fdtd: checkpoint at t=%g: %w", t, err)
			}
		}
	}
	if ckpt.Enabled() {
		// Final snapshot: a resume of a completed run returns immediately.
		if err := saveFDTDSnapshot(ckpt.Path, s, dt, tstop, s.t0, steps, res.Time, e0, eInj); err != nil {
			return res, fmt.Errorf("fdtd: final checkpoint: %w", err)
		}
	}
	s.t0 += float64(steps) * dt
	return res, nil
}

// TotalEnergy returns the instantaneous field energy (J) stored in the grid
// — used to verify lossless conservation.
func (s *Sim) TotalEnergy() float64 {
	cellArea := s.Dx * s.Dy
	var e float64
	for c, act := range s.active {
		if act {
			e += 0.5 * s.Carea * cellArea * s.v[c] * s.v[c]
		}
	}
	// Magnetic energy: ½·L′·I²·(area of the link square).
	for i := 1; i < s.Nx; i++ {
		row := s.ix[i*s.Ny : (i+1)*s.Ny]
		for _, v := range row {
			e += 0.5 * s.Lsq * v * v * cellArea
		}
	}
	for i := 0; i < s.Nx; i++ {
		row := s.iy[i*(s.Ny+1) : (i+1)*(s.Ny+1)]
		for j := 1; j < s.Ny; j++ {
			e += 0.5 * s.Lsq * row[j] * row[j] * cellArea
		}
	}
	return e
}
