package circuit

// Resistor is a linear two-terminal resistance.
type Resistor struct {
	A, B int
	R    float64
}

// Capacitor is a linear two-terminal capacitance.
type Capacitor struct {
	A, B int
	C    float64
}

// Inductor is a linear two-terminal inductance; its branch current is an MNA
// unknown (group-2 element), so it can be mutually coupled and L may be 0.
type Inductor struct {
	name   string
	A, B   int
	L      float64
	IC     float64 // initial current
	branch int     // assigned by the solver
}

// Mutual couples two inductors with mutual inductance M (H).
type Mutual struct {
	L1, L2 *Inductor
	M      float64
}

// VSource is an independent voltage source (group-2 element).
type VSource struct {
	name   string
	A, B   int
	W      Waveform
	branch int
}

// ISource is an independent current source pushing W(t) amperes from node A
// through itself into node B.
type ISource struct {
	A, B int
	W    Waveform
}

// Switch is a time-controlled resistor: Ron when Ctrl(t) is true, Roff
// otherwise. It is the building block of behavioural (ramp) drivers.
type Switch struct {
	A, B      int
	Ron, Roff float64
	Ctrl      func(t float64) bool
}

// Conductance returns the switch conductance at time t.
func (s *Switch) Conductance(t float64) float64 {
	if s.Ctrl(t) {
		return 1 / s.Ron
	}
	return 1 / s.Roff
}

// VCCS is a voltage-controlled current source: Gm·(v(CP) − v(CN)) amperes
// flow from A through the source into B.
type VCCS struct {
	A, B   int
	CP, CN int
	Gm     float64
}

// VCVS is a voltage-controlled voltage source: v(A) − v(B) =
// Gain·(v(CP) − v(CN)). Its branch current is an MNA unknown.
type VCVS struct {
	name   string
	A, B   int
	CP, CN int
	Gain   float64
	branch int
}

// Device is a nonlinear element solved by Newton-Raphson. Load is called
// once per Newton iteration with the current solution estimate; it must
// stamp the linearised conductances into the system via the stamper and add
// the equivalent current residuals.
type Device interface {
	Name() string
	// Load stamps the linearisation of the device around the node voltages
	// in x (full MNA vector, node k > 0 at x[k-1]). Implementations may
	// apply internal limiting (pnjlim/fetlim) to the voltages they
	// linearise around.
	Load(st *Stamper, x []float64)
	// Converged reports whether the device equations are satisfied at the
	// solution x — in particular that no internal limiting clamped the
	// voltages it was linearised around. Newton only accepts a step when
	// every device agrees.
	Converged(x []float64) bool
}

// Stamper provides write access to the MNA matrix and RHS during device
// loading. Row/column -1 (the ground node) is discarded automatically.
// T is the simulation time of the step being solved (0 for DC), letting
// time-varying devices (e.g. ramped IBIS-style drivers) scale their output.
type Stamper struct {
	n   int
	a   []float64 // n×n row-major
	rhs []float64
	// rows lists, in first-write order, the matrix rows the conductance
	// stamps wrote, and seen marks them: the row set R of the Newton
	// low-rank correction. A nil seen records nothing.
	rows []int
	seen []bool
	T    float64
	// Dt is the integration step of the solve being assembled (0 for DC).
	// Devices with internal dynamics — or fault-injection test doubles that
	// model stiffness — may read it to scale their companion models.
	Dt float64
	// Gmin is the extra continuation conductance of a Gmin-stepping OP solve
	// (0 during normal solves).
	Gmin float64
}

// add adds v to a[r][c] and records row r.
func (s *Stamper) add(r, c int, v float64) {
	if s.seen != nil && !s.seen[r] {
		s.seen[r] = true
		s.rows = append(s.rows, r)
	}
	s.a[r*s.n+c] += v
}

// StampConductance adds g between nodes a and b (node indices as in
// Circuit; Ground is handled).
func (s *Stamper) StampConductance(a, b int, g float64) {
	i, j := a-1, b-1
	if i >= 0 {
		s.add(i, i, g)
	}
	if j >= 0 {
		s.add(j, j, g)
	}
	if i >= 0 && j >= 0 {
		s.add(i, j, -g)
		s.add(j, i, -g)
	}
}

// StampTransconductance adds current g·(v_c − v_d) into branch a→b
// (entering b, leaving a).
func (s *Stamper) StampTransconductance(a, b, cp, cn int, g float64) {
	rows := [2]int{a - 1, b - 1}
	signs := [2]float64{1, -1}
	cols := [2]int{cp - 1, cn - 1}
	csign := [2]float64{1, -1}
	for r := 0; r < 2; r++ {
		if rows[r] < 0 {
			continue
		}
		for c := 0; c < 2; c++ {
			if cols[c] < 0 {
				continue
			}
			s.add(rows[r], cols[c], signs[r]*csign[c]*g)
		}
	}
}

// StampCurrent adds a current i flowing from node a to node b (out of a,
// into b).
func (s *Stamper) StampCurrent(a, b int, i float64) {
	if a-1 >= 0 {
		s.rhs[a-1] -= i
	}
	if b-1 >= 0 {
		s.rhs[b-1] += i
	}
}

// NodeVoltage reads a node voltage from an MNA solution vector.
func NodeVoltage(x []float64, node int) float64 {
	if node == Ground {
		return 0
	}
	return x[node-1]
}
