// Package device provides the chip-device subsystem of the paper's §5.2:
// driver and receiver models for the integrated co-simulation. Three driver
// fidelities are available, mirroring the paper's "proprietary behavioural
// device models, as well as IBIS or SPICE models":
//
//   - CMOSDriver — a transistor-level (level-1 MOSFET) inverter; the most
//     accurate and the slowest (Newton per step).
//   - RampDriver — a behavioural switch driver (time-controlled pull-up and
//     pull-down with on-resistance and slew), linear time-varying; refactors
//     only at switching instants, which makes large SSN sweeps cheap.
//   - IBISDriver — an I/V-table output stage with a time-ramped multiplexer
//     between the pull-down and pull-up tables.
//
// All drivers connect between local rail nodes so that supply noise feeds
// back into the device operation — the dynamic interaction the paper's SSN
// analysis hinges on.
package device

import (
	"fmt"
	"sort"

	"pdnsim/internal/circuit"

	"pdnsim/internal/simerr"
)

// CMOSParams size a transistor-level inverter driver.
type CMOSParams struct {
	Vt     float64 // threshold magnitude (V), both devices
	KN, KP float64 // device transconductances (A/V²)
	Lambda float64 // channel-length modulation (1/V)
	CLoad  float64 // output load capacitance (F), 0 to omit
}

// DefaultCMOS returns a stout output driver sizing (≈25 Ω on-resistance
// class for a 3.3 V rail).
func DefaultCMOS() CMOSParams {
	return CMOSParams{Vt: 0.7, KN: 30e-3, KP: 30e-3, Lambda: 0.02, CLoad: 10e-12}
}

// AddCMOSDriver instantiates a CMOS inverter between the rail nodes vdd and
// vss (die-side rails, typically behind package parasitics), driven by the
// gate waveform referenced to true ground, with its output at out.
// The gate source is ideal: in the paper's partition the logic swing is an
// input, while the output stage interacts with the power network.
func AddCMOSDriver(c *circuit.Circuit, name string, out, vdd, vss int,
	gate circuit.Waveform, p CMOSParams) error {
	if p.Vt <= 0 || p.KN <= 0 || p.KP <= 0 {
		return simerr.Tagf(simerr.ErrBadInput, "device: driver %s has non-positive transistor parameters", name)
	}
	g := c.Node(name + "_gate")
	if _, err := c.AddVSource(name+"_vg", g, circuit.Ground, gate); err != nil {
		return err
	}
	c.AddDevice(circuit.NewMOSFET(name+"_mn", out, g, vss, false, p.Vt, p.KN, p.Lambda))
	c.AddDevice(circuit.NewMOSFET(name+"_mp", out, g, vdd, true, p.Vt, p.KP, p.Lambda))
	if p.CLoad > 0 {
		if _, err := c.AddCapacitor(name+"_cl", out, circuit.Ground, p.CLoad); err != nil {
			return err
		}
	}
	return nil
}

// RampParams size a behavioural switch driver.
type RampParams struct {
	Ron   float64 // output on-resistance (Ω)
	Roff  float64 // off resistance (Ω)
	CLoad float64 // output load capacitance (F), 0 to omit
}

// DefaultRamp returns a typical 25 Ω CMOS output class.
func DefaultRamp() RampParams {
	return RampParams{Ron: 25, Roff: 1e9, CLoad: 10e-12}
}

// Schedule describes when a behavioural driver output is high: high(t)
// returns true when the pull-up is on. The pull-down is its complement.
type Schedule func(t float64) bool

// PeriodicSchedule returns a schedule that is high on [delay+k·period,
// delay+k·period+width) for k ≥ 0.
func PeriodicSchedule(delay, width, period float64) Schedule {
	return func(t float64) bool {
		if t < delay {
			return false
		}
		tt := t - delay
		if period > 0 {
			for tt >= period {
				tt -= period
			}
		}
		return tt < width
	}
}

// AddRampDriver instantiates a behavioural driver between the rails: a
// pull-up switch to vdd and a complementary pull-down switch to vss, each
// with resistance Ron. Break-before-make is implicit in the shared schedule.
func AddRampDriver(c *circuit.Circuit, name string, out, vdd, vss int,
	high Schedule, p RampParams) error {
	if high == nil {
		return simerr.Tagf(simerr.ErrBadInput, "device: driver %s needs a schedule", name)
	}
	if p.Ron <= 0 || p.Roff <= p.Ron {
		return simerr.Tagf(simerr.ErrBadInput, "device: driver %s needs 0 < Ron < Roff", name)
	}
	if _, err := c.AddSwitch(name+"_pu", vdd, out, p.Ron, p.Roff,
		func(t float64) bool { return high(t) }); err != nil {
		return err
	}
	if _, err := c.AddSwitch(name+"_pd", out, vss, p.Ron, p.Roff,
		func(t float64) bool { return !high(t) }); err != nil {
		return err
	}
	if p.CLoad > 0 {
		if _, err := c.AddCapacitor(name+"_cl", out, circuit.Ground, p.CLoad); err != nil {
			return err
		}
	}
	return nil
}

// IVTable is a monotone I/V table (voltages ascending). Currents are the
// device current at each voltage across the output stage.
type IVTable struct {
	V, I []float64
}

// Validate checks the table is usable.
func (t IVTable) Validate() error {
	if len(t.V) < 2 || len(t.V) != len(t.I) {
		return simerr.Tagf(simerr.ErrBadInput, "device: IV table needs ≥2 matched points")
	}
	if !sort.Float64sAreSorted(t.V) {
		return simerr.Tagf(simerr.ErrBadInput, "device: IV table voltages must ascend")
	}
	return nil
}

// eval returns the interpolated current and slope at v (clamped slope
// extrapolation outside the table).
func (t IVTable) eval(v float64) (i, g float64) {
	n := len(t.V)
	if v <= t.V[0] {
		g = (t.I[1] - t.I[0]) / (t.V[1] - t.V[0])
		return t.I[0] + g*(v-t.V[0]), g
	}
	if v >= t.V[n-1] {
		g = (t.I[n-1] - t.I[n-2]) / (t.V[n-1] - t.V[n-2])
		return t.I[n-1] + g*(v-t.V[n-1]), g
	}
	k := sort.SearchFloat64s(t.V, v)
	g = (t.I[k] - t.I[k-1]) / (t.V[k] - t.V[k-1])
	return t.I[k-1] + g*(v-t.V[k-1]), g
}

// IBISDriver is a table-driven output stage: a pull-down table (current into
// the device versus output-to-vss voltage) and a pull-up table (current
// versus output-to-vdd voltage), cross-faded by a switching ramp — the
// structure of an IBIS output model.
type IBISDriver struct {
	name     string
	Out      int
	Vdd, Vss int
	PullDown IVTable // I(v_out − v_vss) when driving low
	PullUp   IVTable // I(v_out − v_vdd) when driving high (negative currents source)
	// High returns the pull-up activation in [0,1] at time t; the pull-down
	// weight is its complement.
	High func(t float64) float64
}

// NewIBISDriver validates and builds the driver.
func NewIBISDriver(name string, out, vdd, vss int, pd, pu IVTable, high func(t float64) float64) (*IBISDriver, error) {
	if err := pd.Validate(); err != nil {
		return nil, fmt.Errorf("device: %s pull-down: %w", name, err)
	}
	if err := pu.Validate(); err != nil {
		return nil, fmt.Errorf("device: %s pull-up: %w", name, err)
	}
	if high == nil {
		return nil, simerr.Tagf(simerr.ErrBadInput, "device: %s needs a switching function", name)
	}
	return &IBISDriver{name: name, Out: out, Vdd: vdd, Vss: vss,
		PullDown: pd, PullUp: pu, High: high}, nil
}

// Name returns the element name.
func (d *IBISDriver) Name() string { return d.name }

// Load stamps the weighted table currents.
func (d *IBISDriver) Load(st *circuit.Stamper, x []float64) {
	w := d.High(st.T)
	if w < 0 {
		w = 0
	}
	if w > 1 {
		w = 1
	}
	vOut := circuit.NodeVoltage(x, d.Out)
	// Pull-down: current from Out into Vss as a function of (vOut − vVss).
	vPD := vOut - circuit.NodeVoltage(x, d.Vss)
	iPD, gPD := d.PullDown.eval(vPD)
	wPD := 1 - w
	st.StampConductance(d.Out, d.Vss, wPD*gPD)
	st.StampCurrent(d.Out, d.Vss, wPD*(iPD-gPD*vPD))
	// Pull-up: current from Out into Vdd as a function of (vOut − vVdd)
	// (negative for a sourcing driver).
	vPU := vOut - circuit.NodeVoltage(x, d.Vdd)
	iPU, gPU := d.PullUp.eval(vPU)
	st.StampConductance(d.Out, d.Vdd, w*gPU)
	st.StampCurrent(d.Out, d.Vdd, w*(iPU-gPU*vPU))
}

// Converged always accepts: the tables are piecewise linear, so the Newton
// step lands exactly on the linearisation within one segment.
func (d *IBISDriver) Converged([]float64) bool { return true }

// LinearRamp returns a switching function ramping 0→1 between t0 and t0+tr
// and back at t1..t1+tr (a single output pulse). t1 ≤ t0 disables the
// return edge.
func LinearRamp(t0, tr, t1 float64) func(t float64) float64 {
	return func(t float64) float64 {
		rampUp := ramp01((t - t0) / tr)
		if t1 <= t0 {
			return rampUp
		}
		return rampUp - ramp01((t-t1)/tr)
	}
}

func ramp01(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	return x
}

// TypicalPullDown returns an NMOS-like pull-down I/V table for the given
// rail voltage and on-resistance class (piecewise linear: resistive knee
// then saturation).
func TypicalPullDown(vdd, ron float64) IVTable {
	isat := vdd / (2 * ron)
	return IVTable{
		V: []float64{-vdd, 0, vdd / 3, vdd, 1.5 * vdd},
		I: []float64{-vdd / (3 * ron) /* clamp-ish */, 0, isat * 0.8, isat, isat * 1.05},
	}
}

// TypicalPullUp returns the complementary PMOS-like pull-up table
// (currents negative: the stage sources current when v_out < v_vdd).
func TypicalPullUp(vdd, ron float64) IVTable {
	pd := TypicalPullDown(vdd, ron)
	n := len(pd.V)
	v := make([]float64, n)
	i := make([]float64, n)
	for k := 0; k < n; k++ {
		v[k] = -pd.V[n-1-k]
		i[k] = -pd.I[n-1-k]
	}
	return IVTable{V: v, I: i}
}
