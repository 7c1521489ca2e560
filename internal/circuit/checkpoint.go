package circuit

import (
	"math"

	"pdnsim/internal/checkpoint"
	"pdnsim/internal/simerr"
)

// tranSnapshotKind tags transient snapshots in the checkpoint envelope so a
// -resume pointed at an FDTD or sweep snapshot fails loudly.
const tranSnapshotKind = "tran"

// tranMTLState is the serialised Bergeron history of one transmission line:
// the modal wave records and the DC characteristics they were seeded from.
type tranMTLState struct {
	W1   [][]float64 `json:"w1"`
	W2   [][]float64 `json:"w2"`
	DcW1 []float64   `json:"dc_w1"`
	DcW2 []float64   `json:"dc_w2"`
}

// tranSnapshot is the complete resumable state of a transient run after an
// accepted uniform step: the MNA solution vector, the companion-model state,
// the line histories, the devices' limiter state (the last voltages
// pnjlim/fetlim limited against, diode vPrev and MOSFET vgsPrev/vdsPrev),
// the solver statistics, and every recorded output sample. Restoring it
// reproduces the uninterrupted run's arithmetic exactly — JSON round-trips
// float64 losslessly and no other state feeds the stepping loop (the MNA
// factor cache is rebuilt from its key, a pure function of the options).
type tranSnapshot struct {
	Dt       float64 `json:"dt"`
	Tstop    float64 `json:"tstop"`
	Method   int     `json:"method"`
	UIC      bool    `json:"uic"`
	Dim      int     `json:"dim"`
	NumNodes int     `json:"num_nodes"`

	Step    int            `json:"step"` // accepted uniform steps (state is at t = Step·Dt)
	X       []float64      `json:"x"`
	CapCurr []float64      `json:"cap_curr"`
	IndVolt []float64      `json:"ind_volt"`
	MTL     []tranMTLState `json:"mtl,omitempty"`
	// Limiters holds one entry per device in circuit order: its limiter
	// state, or null for a device without one.
	Limiters [][]float64 `json:"limiters,omitempty"`
	Stats    SolveStats  `json:"stats"`

	Time []float64            `json:"time"`
	V    [][]float64          `json:"v"`
	Isrc map[string][]float64 `json:"isrc"`
}

// tranState is the in-memory capture of resumable state at the last
// *recorded* uniform step. The stepping loop mutates x and the companion
// slices in place (and sub-step recovery can leave them mid-halving, off the
// uniform grid, when a step is abandoned), so checkpointing copies them at
// each accepted step and snapshots only ever serialise a copy.
type tranState struct {
	step     int
	x        []float64
	capCurr  []float64
	indVolt  []float64
	mtl      []tranMTLState
	limiters [][]float64
}

// captureTranState copies the resumable state after accepted step n. MTL
// wave histories are append-only, so capturing their slice headers (and
// copying the small DC vectors) is stable against later growth. Device
// limiter state is copied as the step's last Newton iteration left it.
func captureTranState(c *Circuit, n int, x, capCurr, indVolt []float64) *tranState {
	st := &tranState{
		step:    n,
		x:       append([]float64(nil), x...),
		capCurr: append([]float64(nil), capCurr...),
		indVolt: append([]float64(nil), indVolt...),
	}
	for _, tl := range c.mtls {
		st.mtl = append(st.mtl, tranMTLState{
			W1:   tl.w1[:len(tl.w1):len(tl.w1)],
			W2:   tl.w2[:len(tl.w2):len(tl.w2)],
			DcW1: append([]float64(nil), tl.dcW1...),
			DcW2: append([]float64(nil), tl.dcW2...),
		})
	}
	if len(c.devices) > 0 {
		st.limiters = make([][]float64, len(c.devices))
		for i, d := range c.devices {
			if l, ok := d.(limiter); ok {
				st.limiters[i] = l.limiterState()
			}
		}
	}
	return st
}

// saveTranSnapshot atomically writes the captured state plus the output
// records up to that step.
func saveTranSnapshot(path string, opts TranOptions, s *solver, st *tranState, res *Result) error {
	snap := &tranSnapshot{
		Dt:       opts.Dt,
		Tstop:    opts.Tstop,
		Method:   int(opts.Method),
		UIC:      opts.UIC,
		Dim:      s.dim,
		NumNodes: s.c.NumNodes(),
		Step:     st.step,
		X:        st.x,
		CapCurr:  st.capCurr,
		IndVolt:  st.indVolt,
		MTL:      st.mtl,
		Limiters: st.limiters,
		Stats:    s.stats,
		Time:     res.Time[:st.step+1],
		V:        res.v[:st.step+1],
	}
	snap.Isrc = make(map[string][]float64, len(res.isrc))
	for name, w := range res.isrc {
		snap.Isrc[name] = w[:st.step+1]
	}
	return checkpoint.Save(path, tranSnapshotKind, snap)
}

// restoreTranSnapshot loads a snapshot and validates it against the current
// circuit and options: the run being resumed must be the same analysis of
// the same circuit, or the restored state would silently produce garbage.
// Every mismatch is a simerr.ErrBadInput-class error.
func restoreTranSnapshot(path string, opts TranOptions, s *solver) (*tranSnapshot, error) {
	bad := func(format string, args ...any) error {
		return simerr.BadInput("circuit: resume", format, args...)
	}
	var snap tranSnapshot
	if err := checkpoint.Load(path, tranSnapshotKind, &snap); err != nil {
		return nil, err
	}
	c := s.c
	if !checkpoint.SameBits(snap.Dt, opts.Dt) || !checkpoint.SameBits(snap.Tstop, opts.Tstop) {
		return nil, bad("snapshot is of a dt=%g tstop=%g run, this run is dt=%g tstop=%g",
			snap.Dt, snap.Tstop, opts.Dt, opts.Tstop)
	}
	if snap.Method != int(opts.Method) {
		return nil, bad("snapshot used method %s, this run uses %s", Method(snap.Method), opts.Method)
	}
	if snap.UIC != opts.UIC {
		return nil, bad("snapshot and run disagree on UIC")
	}
	if snap.Dim != s.dim || snap.NumNodes != c.NumNodes() {
		return nil, bad("snapshot is of a different circuit (%d unknowns / %d nodes, this circuit has %d / %d)",
			snap.Dim, snap.NumNodes, s.dim, c.NumNodes())
	}
	if len(snap.X) != s.dim || len(snap.CapCurr) != len(c.capacitors) || len(snap.IndVolt) != len(c.inductors) {
		return nil, bad("snapshot state vectors do not match the circuit (x %d, cap %d, ind %d)",
			len(snap.X), len(snap.CapCurr), len(snap.IndVolt))
	}
	if len(snap.MTL) != len(c.mtls) {
		return nil, bad("snapshot has %d transmission-line histories, circuit has %d lines", len(snap.MTL), len(c.mtls))
	}
	for i, tl := range c.mtls {
		m := snap.MTL[i]
		if len(m.DcW1) != tl.Modes() || len(m.DcW2) != tl.Modes() {
			return nil, bad("line %s history has wrong mode count", tl.Name())
		}
	}
	if len(snap.Limiters) != len(c.devices) {
		return nil, bad("snapshot has limiter state for %d devices, circuit has %d devices", len(snap.Limiters), len(c.devices))
	}
	for i, d := range c.devices {
		want := 0
		if l, ok := d.(limiter); ok {
			want = len(l.limiterState())
		}
		if len(snap.Limiters[i]) != want {
			return nil, bad("device %s limiter state has %d values, want %d", d.Name(), len(snap.Limiters[i]), want)
		}
	}
	nSteps := int(math.Round(opts.Tstop / opts.Dt))
	if snap.Step < 0 || snap.Step > nSteps {
		return nil, bad("snapshot step %d outside the run's %d steps", snap.Step, nSteps)
	}
	if len(snap.Time) != snap.Step+1 || len(snap.V) != snap.Step+1 {
		return nil, bad("snapshot records are inconsistent with its step index")
	}
	for _, vs := range c.vsources {
		w, ok := snap.Isrc[vs.name]
		if !ok || len(w) != snap.Step+1 {
			return nil, bad("snapshot is missing the current record of source %s", vs.name)
		}
	}
	if err := simerr.CheckFinite("circuit: resume", float64(snap.Step)*opts.Dt, snap.X, s.unknownName); err != nil {
		return nil, err
	}
	return &snap, nil
}

// applyTranSnapshot installs the validated snapshot into the solver, the
// circuit's line histories and device limiters, and the result records,
// returning the restored node vector and the step to continue from.
func applyTranSnapshot(snap *tranSnapshot, s *solver, capCurr, indVolt []float64, res *Result) (x []float64, startStep int) {
	copy(capCurr, snap.CapCurr)
	copy(indVolt, snap.IndVolt)
	for i, tl := range s.c.mtls {
		m := snap.MTL[i]
		tl.w1, tl.w2 = m.W1, m.W2
		tl.dcW1 = append([]float64(nil), m.DcW1...)
		tl.dcW2 = append([]float64(nil), m.DcW2...)
	}
	for i, d := range s.c.devices {
		if l, ok := d.(limiter); ok {
			l.setLimiterState(snap.Limiters[i])
		}
	}
	s.stats = snap.Stats
	res.Time = snap.Time
	res.v = snap.V
	for name, w := range snap.Isrc {
		res.isrc[name] = w
	}
	return snap.X, snap.Step
}
