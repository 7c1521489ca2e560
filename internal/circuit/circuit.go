// Package circuit is the time- and frequency-domain circuit solver of the
// paper's §5.1: a modified-nodal-analysis (MNA) engine with first-order
// (backward Euler) and second-order (trapezoidal) integration at a uniform
// time step, a complex AC sweep, Newton-Raphson for nonlinear devices, and
// lossless (multiconductor) transmission lines solved by the method of
// characteristics.
//
// The element set covers everything the integrated co-simulation of §5.2
// needs: R, L (with mutual coupling), C, independent V/I sources with pulse,
// piecewise-linear and sinusoidal waveforms, time-controlled switches,
// level-1 MOSFETs and diodes for drivers, and N-conductor modal transmission
// lines for the signal nets.
package circuit

import (
	"pdnsim/internal/simerr"
)

// Circuit is a netlist under construction. The ground node is named "0" and
// always exists at index 0.
type Circuit struct {
	names []string
	index map[string]int

	resistors  []*Resistor
	capacitors []*Capacitor
	inductors  []*Inductor
	mutuals    []*Mutual
	vsources   []*VSource
	isources   []*ISource
	switches   []*Switch
	mtls       []*MTL
	devices    []Device
	vccs       []*VCCS
	vcvs       []*VCVS
}

// New returns an empty circuit containing only the ground node.
func New() *Circuit {
	return &Circuit{
		names: []string{"0"},
		index: map[string]int{"0": 0},
	}
}

// Node returns the index for the named node, creating it on first use.
func (c *Circuit) Node(name string) int {
	if i, ok := c.index[name]; ok {
		return i
	}
	i := len(c.names)
	c.names = append(c.names, name)
	c.index[name] = i
	return i
}

// Ground is the index of the reference node.
const Ground = 0

// NumNodes returns the node count including ground.
func (c *Circuit) NumNodes() int { return len(c.names) }

// NodeName returns the name of node i.
func (c *Circuit) NodeName(i int) string { return c.names[i] }

// LookupNode returns the index of a named node, if it exists.
func (c *Circuit) LookupNode(name string) (int, bool) {
	i, ok := c.index[name]
	return i, ok
}

// AddResistor adds a resistor between nodes a and b.
func (c *Circuit) AddResistor(name string, a, b int, r float64) (*Resistor, error) {
	if r <= 0 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "circuit: resistor %s must be positive, got %g", name, r)
	}
	el := &Resistor{A: a, B: b, R: r}
	c.resistors = append(c.resistors, el)
	return el, nil
}

// AddCapacitor adds a capacitor between nodes a and b.
func (c *Circuit) AddCapacitor(name string, a, b int, f float64) (*Capacitor, error) {
	if f <= 0 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "circuit: capacitor %s must be positive, got %g", name, f)
	}
	el := &Capacitor{A: a, B: b, C: f}
	c.capacitors = append(c.capacitors, el)
	return el, nil
}

// AddInductor adds an inductor between nodes a and b. Its branch current is
// an MNA unknown, so mutual coupling and L → 0 are handled exactly.
func (c *Circuit) AddInductor(name string, a, b int, l float64) (*Inductor, error) {
	if l < 0 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "circuit: inductor %s must be non-negative, got %g", name, l)
	}
	el := &Inductor{name: name, A: a, B: b, L: l}
	c.inductors = append(c.inductors, el)
	return el, nil
}

// AddMutual couples two inductors with mutual inductance m (H). |m| must not
// exceed √(L1·L2).
func (c *Circuit) AddMutual(name string, l1, l2 *Inductor, m float64) (*Mutual, error) {
	if l1 == nil || l2 == nil || l1 == l2 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "circuit: mutual requires two distinct inductors")
	}
	if m*m > l1.L*l2.L {
		return nil, simerr.Tagf(simerr.ErrBadInput, "circuit: mutual %s exceeds √(L1·L2)", name)
	}
	el := &Mutual{L1: l1, L2: l2, M: m}
	c.mutuals = append(c.mutuals, el)
	return el, nil
}

// AddVSource adds an independent voltage source (a positive w.r.t. b).
func (c *Circuit) AddVSource(name string, a, b int, w Waveform) (*VSource, error) {
	if w == nil {
		return nil, simerr.Tagf(simerr.ErrBadInput, "circuit: source %s needs a waveform", name)
	}
	el := &VSource{name: name, A: a, B: b, W: w}
	c.vsources = append(c.vsources, el)
	return el, nil
}

// AddISource adds an independent current source (flowing from a through the
// source to b: positive value pushes current into node b).
func (c *Circuit) AddISource(name string, a, b int, w Waveform) (*ISource, error) {
	if w == nil {
		return nil, simerr.Tagf(simerr.ErrBadInput, "circuit: source %s needs a waveform", name)
	}
	el := &ISource{A: a, B: b, W: w}
	c.isources = append(c.isources, el)
	return el, nil
}

// AddSwitch adds a time-controlled switch with on/off resistances.
func (c *Circuit) AddSwitch(name string, a, b int, ron, roff float64, ctrl func(t float64) bool) (*Switch, error) {
	if ron <= 0 || roff <= 0 || ron >= roff {
		return nil, simerr.Tagf(simerr.ErrBadInput, "circuit: switch %s needs 0 < Ron < Roff", name)
	}
	if ctrl == nil {
		return nil, simerr.Tagf(simerr.ErrBadInput, "circuit: switch %s needs a control function", name)
	}
	el := &Switch{A: a, B: b, Ron: ron, Roff: roff, Ctrl: ctrl}
	c.switches = append(c.switches, el)
	return el, nil
}

// AddTLine adds a lossless 2-conductor transmission line (signal +
// reference) between port 1 (a1 w.r.t. b1) and port 2 (a2 w.r.t. b2) with
// characteristic impedance z0 and one-way delay td.
func (c *Circuit) AddTLine(name string, a1, b1, a2, b2 int, z0, td float64) (*MTL, error) {
	if z0 <= 0 || td <= 0 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "circuit: line %s needs positive Z0 and delay", name)
	}
	return c.addMTL(&MTL{
		name: name,
		End1: []int{a1}, Ref1: b1,
		End2: []int{a2}, Ref2: b2,
		Z: []float64{z0}, Td: []float64{td},
		TV: identity(1), TVInv: identity(1), TI: identity(1),
	})
}

// AddMTLModal adds an N-conductor lossless line in modal form. end1/end2 are
// the terminal nodes of each conductor at the two ends (both referenced to
// ref1/ref2), tv/tvInv/ti the modal transformation matrices (voltage
// transform, its inverse, current transform, each N×N row-major), z and td
// the per-mode impedances and delays. Package tline builds these from
// per-unit-length L/C matrices.
func (c *Circuit) AddMTLModal(name string, end1 []int, ref1 int, end2 []int, ref2 int,
	tv, tvInv, ti [][]float64, z, td []float64) (*MTL, error) {
	n := len(end1)
	if n == 0 || len(end2) != n || len(z) != n || len(td) != n ||
		len(tv) != n || len(tvInv) != n || len(ti) != n {
		return nil, simerr.Tagf(simerr.ErrBadInput, "circuit: line %s has inconsistent dimensions", name)
	}
	for k := 0; k < n; k++ {
		if z[k] <= 0 || td[k] <= 0 {
			return nil, simerr.Tagf(simerr.ErrBadInput, "circuit: line %s mode %d needs positive Z and delay", name, k)
		}
	}
	return c.addMTL(&MTL{
		name: name,
		End1: append([]int{}, end1...), Ref1: ref1,
		End2: append([]int{}, end2...), Ref2: ref2,
		Z: append([]float64{}, z...), Td: append([]float64{}, td...),
		TV: cloneMat(tv), TVInv: cloneMat(tvInv), TI: cloneMat(ti),
	})
}

func (c *Circuit) addMTL(m *MTL) (*MTL, error) {
	c.mtls = append(c.mtls, m)
	return m, nil
}

// AddVCCS adds a voltage-controlled current source: gm·(v(cp) − v(cn))
// amperes flow from a through the source into b.
func (c *Circuit) AddVCCS(name string, a, b, cp, cn int, gm float64) (*VCCS, error) {
	el := &VCCS{A: a, B: b, CP: cp, CN: cn, Gm: gm}
	c.vccs = append(c.vccs, el)
	return el, nil
}

// AddVCVS adds a voltage-controlled voltage source:
// v(a) − v(b) = gain·(v(cp) − v(cn)).
func (c *Circuit) AddVCVS(name string, a, b, cp, cn int, gain float64) (*VCVS, error) {
	el := &VCVS{name: name, A: a, B: b, CP: cp, CN: cn, Gain: gain}
	c.vcvs = append(c.vcvs, el)
	return el, nil
}

// AddDevice attaches a nonlinear device (diode, MOSFET, …).
func (c *Circuit) AddDevice(d Device) {
	c.devices = append(c.devices, d)
}

// HasNonlinear reports whether the circuit needs Newton iterations.
func (c *Circuit) HasNonlinear() bool { return len(c.devices) > 0 }

func identity(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = 1
	}
	return m
}

func cloneMat(a [][]float64) [][]float64 {
	out := make([][]float64, len(a))
	for i, row := range a {
		out[i] = append([]float64{}, row...)
	}
	return out
}
