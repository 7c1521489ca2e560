package circuit

import "math"

// Newton helpers shared by the nonlinear devices.
const (
	gmin     = 1e-12 // convergence aid across nonlinear junctions/channels
	thermalV = 0.025852

	// devAbsTol and devRelTol form the SPICE-style per-device convergence
	// band |v − vPrev| ≤ devAbsTol + devRelTol·|v| on the control voltages
	// used for the last linearisation: 1 µV absolute (well below thermalV,
	// so the exponential is linear across the band) plus 0.01% relative
	// slack for large-swing nodes. They mirror SPICE's vntol/reltol
	// defaults.
	devAbsTol = 1e-6
	devRelTol = 1e-4
)

// limiter is implemented by devices whose Load keeps step-limiting memory
// (pnjlim/fetlim) from one linearisation to the next, across Newton
// iterations and time steps. The memory steers every later iterate, so
// transient checkpoints carry it: a resumed run limits exactly as the
// uninterrupted one did.
type limiter interface {
	limiterState() []float64
	setLimiterState(v []float64) // v has limiterState's length
}

// Diode is an ideal-exponential junction diode.
type Diode struct {
	name string
	A, K int     // anode, cathode
	Is   float64 // saturation current (A)
	N    float64 // ideality factor

	vPrev float64
}

// Name returns the element name.
func (d *Diode) Name() string { return d.name }

// Load stamps the linearised diode at the present iterate.
func (d *Diode) Load(st *Stamper, x []float64) {
	v := NodeVoltage(x, d.A) - NodeVoltage(x, d.K)
	v = pnjlim(v, d.vPrev, d.N*thermalV, d.vcrit())
	d.vPrev = v
	nvt := d.N * thermalV
	var i, g float64
	if v > -5*nvt {
		e := math.Exp(v / nvt)
		i = d.Is * (e - 1)
		g = d.Is / nvt * e
	} else {
		i = -d.Is
		g = 0
	}
	g += gmin
	ieq := i - g*v
	st.StampConductance(d.A, d.K, g)
	st.StampCurrent(d.A, d.K, ieq)
}

// Converged reports whether the junction voltage used for the last
// linearisation agrees with the solution (i.e. pnjlim did not clamp).
func (d *Diode) Converged(x []float64) bool {
	v := NodeVoltage(x, d.A) - NodeVoltage(x, d.K)
	return math.Abs(v-d.vPrev) <= devAbsTol+devRelTol*math.Abs(v)
}

func (d *Diode) limiterState() []float64     { return []float64{d.vPrev} }
func (d *Diode) setLimiterState(v []float64) { d.vPrev = v[0] }

func (d *Diode) vcrit() float64 {
	nvt := d.N * thermalV
	return nvt * math.Log(nvt/(math.Sqrt2*d.Is))
}

// pnjlim is the classic SPICE junction-voltage limiter.
func pnjlim(vnew, vold, vt, vcrit float64) float64 {
	if vnew <= vcrit || math.Abs(vnew-vold) <= 2*vt {
		return vnew
	}
	if vold > 0 {
		arg := 1 + (vnew-vold)/vt
		if arg > 0 {
			return vold + vt*math.Log(arg)
		}
		return vcrit
	}
	return vt * math.Log(vnew/vt)
}

// MOSFET is a level-1 (Shichman-Hodges) transistor, the paper-era workhorse
// driver device. The body is tied to the source.
type MOSFET struct {
	name    string
	D, G, S int
	PMOS    bool
	Vt      float64 // threshold magnitude (V), positive for both types
	K       float64 // transconductance k′·W/L (A/V²)
	Lambda  float64 // channel-length modulation (1/V)

	vgsPrev, vdsPrev float64
}

// NewMOSFET constructs a level-1 MOSFET. Vt and K must be positive.
func NewMOSFET(name string, d, g, s int, pmos bool, vt, k, lambda float64) *MOSFET {
	if vt <= 0 {
		vt = 0.7
	}
	if k <= 0 {
		k = 1e-3
	}
	return &MOSFET{name: name, D: d, G: g, S: s, PMOS: pmos, Vt: vt, K: k, Lambda: lambda}
}

// Name returns the element name.
func (m *MOSFET) Name() string { return m.name }

// nmosEval returns the drain current and derivatives of the level-1 NMOS
// equations for vds ≥ 0 (callers handle the vds < 0 swap).
func (m *MOSFET) nmosEval(vgs, vds float64) (id, gm, gds float64) {
	vov := vgs - m.Vt
	if vov <= 0 {
		return 0, 0, 0
	}
	lam := 1 + m.Lambda*vds
	if vds < vov {
		id = m.K * (vov*vds - vds*vds/2) * lam
		gm = m.K * vds * lam
		gds = m.K*(vov-vds)*lam + m.K*(vov*vds-vds*vds/2)*m.Lambda
	} else {
		id = m.K / 2 * vov * vov * lam
		gm = m.K * vov * lam
		gds = m.K / 2 * vov * vov * m.Lambda
	}
	return id, gm, gds
}

// Load stamps the linearised transistor at the present iterate.
func (m *MOSFET) Load(st *Stamper, x []float64) {
	sigma := 1.0
	if m.PMOS {
		sigma = -1
	}
	vgs := sigma * (NodeVoltage(x, m.G) - NodeVoltage(x, m.S))
	vds := sigma * (NodeVoltage(x, m.D) - NodeVoltage(x, m.S))
	// Step limiting for robustness.
	vgs = fetlim(vgs, m.vgsPrev)
	vds = fetlim(vds, m.vdsPrev)
	m.vgsPrev, m.vdsPrev = vgs, vds

	var id, gm, gds float64
	if vds >= 0 {
		id, gm, gds = m.nmosEval(vgs, vds)
	} else {
		// Source/drain swap: f(vgs, vds) = −f(vgs − vds, −vds).
		i2, gm2, gds2 := m.nmosEval(vgs-vds, -vds)
		id = -i2
		gm = -gm2
		gds = gm2 + gds2
	}
	// Map back to terminal quantities: current from D to S inside the
	// device is σ·id; derivatives w.r.t. physical voltages are unchanged
	// because σ² = 1.
	idTerm := sigma * id
	// σ·vgs and σ·vds are the physical node-voltage differences.
	ieq := idTerm - gm*(sigma*vgs) - gds*(sigma*vds)
	st.StampConductance(m.D, m.S, gds+gmin)
	st.StampTransconductance(m.D, m.S, m.G, m.S, gm)
	st.StampCurrent(m.D, m.S, ieq)
}

// Converged reports whether the control voltages used for the last
// linearisation agree with the solution (i.e. fetlim did not clamp).
func (m *MOSFET) Converged(x []float64) bool {
	sigma := 1.0
	if m.PMOS {
		sigma = -1
	}
	vgs := sigma * (NodeVoltage(x, m.G) - NodeVoltage(x, m.S))
	vds := sigma * (NodeVoltage(x, m.D) - NodeVoltage(x, m.S))
	return math.Abs(vgs-m.vgsPrev) <= devAbsTol+devRelTol*math.Abs(vgs) &&
		math.Abs(vds-m.vdsPrev) <= devAbsTol+devRelTol*math.Abs(vds)
}

func (m *MOSFET) limiterState() []float64     { return []float64{m.vgsPrev, m.vdsPrev} }
func (m *MOSFET) setLimiterState(v []float64) { m.vgsPrev, m.vdsPrev = v[0], v[1] }

// fetlim limits the per-iteration change of a FET control voltage.
func fetlim(vnew, vold float64) float64 {
	const maxStep = 0.5
	d := vnew - vold
	if d > maxStep+0.5*math.Abs(vold) {
		return vold + maxStep + 0.5*math.Abs(vold)
	}
	if d < -(maxStep + 0.5*math.Abs(vold)) {
		return vold - maxStep - 0.5*math.Abs(vold)
	}
	return vnew
}
