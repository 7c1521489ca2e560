// Package ssn assembles the paper's integrated co-simulation (§5.2, Fig. 3):
// the four subsystems — chip devices, chip packages, signal nets, and the
// power/ground plane network — are combined into one transient system so
// that switching currents drawn through package pins excite the distributed
// plane model, and the resulting supply noise feeds back into the devices.
//
// The power plane is extracted by the BEM/quasi-static pipeline into an
// N-node RLC macromodel (package extract) and realised as circuit elements;
// each chip connects to it at its Vdd pin locations through package
// parasitics; decoupling capacitors (C + ESR + ESL) connect plane ports to
// the ground reference; drivers switch into local loads or terminated
// signal lines.
package ssn

import (
	"context"
	"fmt"
	"math"

	"pdnsim/internal/bem"
	"pdnsim/internal/circuit"
	"pdnsim/internal/device"
	"pdnsim/internal/extract"
	"pdnsim/internal/geom"
	"pdnsim/internal/greens"
	"pdnsim/internal/mesh"
	"pdnsim/internal/pkgmodel"

	"pdnsim/internal/simerr"
)

// Board describes the power/ground plane pair.
type Board struct {
	Shape      geom.Shape
	PlaneSep   float64 // dielectric thickness between the planes (m)
	EpsR       float64
	SheetRes   float64 // per plane (Ω/sq); the return plane doubles it
	MeshNx     int
	MeshNy     int
	ExtraNodes int     // interior macromodel nodes beyond the ports
	BranchTol  float64 // plane-branch pruning tolerance (0 keeps everything)
}

// DriverKind selects the device fidelity (paper: behavioural / IBIS / SPICE).
type DriverKind int

const (
	// RampDriver is the behavioural switch driver: linear time-varying,
	// cheapest — the workhorse for large SSN sweeps.
	RampDriver DriverKind = iota
	// CMOSDriver is the transistor-level inverter (Newton per step).
	CMOSDriver
	// IBISDriver is the I/V-table output stage.
	IBISDriver
)

// SignalLine optionally loads the first driver of a chip with a terminated
// transmission line instead of a plain capacitor.
type SignalLine struct {
	Z0, Td, Rterm float64
}

// Chip places a component on the board.
type Chip struct {
	Name      string
	At        geom.Point // Vdd connection point on the plane
	Drivers   int        // total output drivers
	Switching int        // drivers that switch simultaneously (≤ Drivers)
	Vdd       float64
	Pin       pkgmodel.Pin
	VddPins   int // parallel Vdd/Gnd pin pairs (≥1)
	Kind      DriverKind
	LoadC     float64 // per-driver output load (F)
	Delay     float64 // switching instant (s)
	Width     float64 // output-high width (s)
	Slew      float64 // edge time for CMOS/IBIS gates (s)
	Line      *SignalLine
}

// Decap is a decoupling capacitor mounted between the planes.
type Decap struct {
	Name     string
	At       geom.Point
	C        float64
	ESR, ESL float64
}

// VRM is the voltage regulator connection.
type VRM struct {
	At   geom.Point
	V    float64
	R, L float64
}

// ChipNodes records the circuit nodes of one built chip.
type ChipNodes struct {
	Name           string
	PlaneVdd       int // board-side plane port node
	DieVdd, DieGnd int
	Outs           []int
}

// System is a built co-simulation.
type System struct {
	Circuit *circuit.Circuit
	Network *extract.Network
	Chips   []ChipNodes
	Vdd     float64
	decaps  []Decap
}

// Build meshes and extracts the plane, then assembles the full circuit.
func Build(b Board, vrm VRM, chips []Chip, decaps []Decap) (*System, error) {
	if b.PlaneSep <= 0 || b.EpsR <= 0 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "ssn: invalid board stackup")
	}
	m, err := planeMesh(b)
	if err != nil {
		return nil, err
	}
	if _, err := m.AddPort("VRM", vrm.At); err != nil {
		return nil, fmt.Errorf("ssn: VRM port: %w", err)
	}
	for _, ch := range chips {
		if _, err := m.AddPort("CHIP_"+ch.Name, ch.At); err != nil {
			return nil, fmt.Errorf("ssn: chip %s port: %w", ch.Name, err)
		}
	}
	for _, dc := range decaps {
		if _, err := m.AddPort("DECAP_"+dc.Name, dc.At); err != nil {
			return nil, fmt.Errorf("ssn: decap %s port: %w", dc.Name, err)
		}
	}
	ctx := context.Background() //pdnlint:ignore ctxflow Build keeps its ctx-free signature for the perfbench ssn-cosim workload, which calls it and may change only in a benchmark change
	nw, err := extractPlane(ctx, b, m)
	if err != nil {
		return nil, err
	}

	c := circuit.New()
	portNodes, err := nw.AttachTol(c, "plane", b.BranchTol)
	if err != nil {
		return nil, fmt.Errorf("ssn: realising plane network: %w", err)
	}
	portOf := make(map[string]int, len(portNodes))
	for i, name := range nw.PortNames {
		portOf[name] = portNodes[i]
	}

	// VRM: ideal source through its output impedance into the plane.
	vsrc := c.Node("vrm_src")
	if _, err := c.AddVSource("VRM", vsrc, circuit.Ground, circuit.DC(vrm.V)); err != nil {
		return nil, err
	}
	r := vrm.R
	if r <= 0 {
		r = 1e-3
	}
	vmid := c.Node("vrm_m")
	if _, err := c.AddResistor("vrm_r", vsrc, vmid, r); err != nil {
		return nil, err
	}
	if _, err := c.AddInductor("vrm_l", vmid, portOf["VRM"], math.Max(vrm.L, 0)); err != nil {
		return nil, err
	}

	sys := &System{Circuit: c, Network: nw, Vdd: vrm.V, decaps: decaps}

	for _, ch := range chips {
		built, err := buildChip(c, ch, portOf["CHIP_"+ch.Name])
		if err != nil {
			return nil, fmt.Errorf("ssn: chip %s: %w", ch.Name, err)
		}
		sys.Chips = append(sys.Chips, built)
	}
	for _, dc := range decaps {
		if err := attachDecap(c, dc, portOf["DECAP_"+dc.Name]); err != nil {
			return nil, fmt.Errorf("ssn: decap %s: %w", dc.Name, err)
		}
	}
	return sys, nil
}

// planeMesh grids the board outline (16×16 cells unless b says otherwise).
func planeMesh(b Board) (*mesh.Mesh, error) {
	if b.MeshNx <= 0 {
		b.MeshNx = 16
	}
	if b.MeshNy <= 0 {
		b.MeshNy = 16
	}
	m, err := mesh.Grid(b.Shape, b.MeshNx, b.MeshNy)
	if err != nil {
		return nil, fmt.Errorf("ssn: meshing plane: %w", err)
	}
	return m, nil
}

// extractPlane reduces the meshed plane pair, ports already placed, to its
// RLC network: both planes carry b.SheetRes.
func extractPlane(ctx context.Context, b Board, m *mesh.Mesh) (*extract.Network, error) {
	kern, err := greens.NewKernel(greens.OverGround, b.PlaneSep, b.EpsR, 1)
	if err != nil {
		return nil, err
	}
	opts := bem.DefaultOptions()
	opts.SheetResistance = b.SheetRes
	opts.ReturnSheetResistance = b.SheetRes
	asm, err := bem.AssembleCtx(ctx, m, kern, opts)
	if err != nil {
		return nil, fmt.Errorf("ssn: BEM assembly: %w", err)
	}
	nw, err := extract.ExtractCtx(ctx, asm, extract.Options{ExtraNodes: b.ExtraNodes})
	if err != nil {
		return nil, fmt.Errorf("ssn: extraction: %w", err)
	}
	return nw, nil
}

func buildChip(c *circuit.Circuit, ch Chip, planeVdd int) (ChipNodes, error) {
	if ch.Drivers <= 0 || ch.Switching < 0 || ch.Switching > ch.Drivers {
		return ChipNodes{}, simerr.Tagf(simerr.ErrBadInput, "invalid driver counts %d/%d", ch.Switching, ch.Drivers)
	}
	if ch.Vdd <= 0 {
		ch.Vdd = 3.3
	}
	if ch.VddPins <= 0 {
		ch.VddPins = 1
	}
	if ch.Slew <= 0 {
		ch.Slew = 0.3e-9
	}
	if ch.LoadC <= 0 {
		ch.LoadC = 10e-12
	}
	// Parallel pins scale the per-pin parasitics.
	pin := ch.Pin
	if pin == (pkgmodel.Pin{}) {
		pin = pkgmodel.QFPPin
	}
	pin.R /= float64(ch.VddPins)
	pin.L /= float64(ch.VddPins)
	pin.C *= float64(ch.VddPins)
	dieVdd, dieGnd, err := pkgmodel.RailPair(c, "u_"+ch.Name, planeVdd, circuit.Ground, pin)
	if err != nil {
		return ChipNodes{}, err
	}
	// On-die decoupling keeps the rails from free-ringing.
	if _, err := c.AddCapacitor("u_"+ch.Name+"_cdie", dieVdd, dieGnd, 200e-12); err != nil {
		return ChipNodes{}, err
	}
	nodes := ChipNodes{Name: ch.Name, PlaneVdd: planeVdd, DieVdd: dieVdd, DieGnd: dieGnd}
	for d := 0; d < ch.Switching; d++ {
		out := c.Node(fmt.Sprintf("u_%s_out%d", ch.Name, d))
		name := fmt.Sprintf("u_%s_d%d", ch.Name, d)
		switch ch.Kind {
		case RampDriver:
			p := device.DefaultRamp()
			p.CLoad = ch.LoadC
			if err := device.AddRampDriver(c, name, out, dieVdd, dieGnd,
				device.PeriodicSchedule(ch.Delay, ch.Width, 0), p); err != nil {
				return ChipNodes{}, err
			}
		case CMOSDriver:
			p := device.DefaultCMOS()
			p.CLoad = ch.LoadC
			gate := circuit.Pulse{V1: ch.Vdd, V2: 0, Delay: ch.Delay,
				Rise: ch.Slew, Fall: ch.Slew, Width: ch.Width}
			if err := device.AddCMOSDriver(c, name, out, dieVdd, dieGnd, gate, p); err != nil {
				return ChipNodes{}, err
			}
		case IBISDriver:
			drv, err := device.NewIBISDriver(name, out, dieVdd, dieGnd,
				device.TypicalPullDown(ch.Vdd, 25), device.TypicalPullUp(ch.Vdd, 25),
				device.LinearRamp(ch.Delay, ch.Slew, ch.Delay+ch.Width))
			if err != nil {
				return ChipNodes{}, err
			}
			c.AddDevice(drv)
			if _, err := c.AddCapacitor(name+"_cl", out, circuit.Ground, ch.LoadC); err != nil {
				return ChipNodes{}, err
			}
		default:
			return ChipNodes{}, simerr.Tagf(simerr.ErrBadInput, "unknown driver kind %d", ch.Kind)
		}
		if d == 0 && ch.Line != nil {
			far := c.Node(fmt.Sprintf("u_%s_far%d", ch.Name, d))
			if _, err := c.AddTLine(name+"_t", out, circuit.Ground, far, circuit.Ground,
				ch.Line.Z0, ch.Line.Td); err != nil {
				return ChipNodes{}, err
			}
			if _, err := c.AddResistor(name+"_rt", far, circuit.Ground, ch.Line.Rterm); err != nil {
				return ChipNodes{}, err
			}
		}
		nodes.Outs = append(nodes.Outs, out)
	}
	return nodes, nil
}

func attachDecap(c *circuit.Circuit, dc Decap, port int) error {
	if dc.C <= 0 {
		return simerr.Tagf(simerr.ErrBadInput, "decap needs positive capacitance")
	}
	esr := dc.ESR
	if esr <= 0 {
		esr = 10e-3
	}
	n1 := c.Node("dc_" + dc.Name + "_1")
	if _, err := c.AddResistor("dc_"+dc.Name+"_r", port, n1, esr); err != nil {
		return err
	}
	n2 := c.Node("dc_" + dc.Name + "_2")
	if _, err := c.AddInductor("dc_"+dc.Name+"_l", n1, n2, math.Max(dc.ESL, 0)); err != nil {
		return err
	}
	if _, err := c.AddCapacitor("dc_"+dc.Name+"_c", n2, circuit.Ground, dc.C); err != nil {
		return err
	}
	return nil
}

// Report summarises one SSN transient.
type Report struct {
	Result *circuit.Result
	// Per chip: worst die ground bounce (V), worst die rail droop from
	// nominal (V), and worst plane-port droop from nominal (V).
	GroundBounce map[string]float64
	RailDroop    map[string]float64
	PlaneDroop   map[string]float64
}

// Run executes the transient and extracts the SSN metrics.
func (s *System) Run(dt, tstop float64, method circuit.Method) (*Report, error) {
	res, err := s.Circuit.Tran(circuit.TranOptions{Dt: dt, Tstop: tstop, Method: method})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Result:       res,
		GroundBounce: map[string]float64{},
		RailDroop:    map[string]float64{},
		PlaneDroop:   map[string]float64{},
	}
	for _, ch := range s.Chips {
		g := res.V(ch.DieGnd)
		vd := res.V(ch.DieVdd)
		pp := res.V(ch.PlaneVdd)
		var bounce, droop, pdroop float64
		for i := range g {
			bounce = math.Max(bounce, math.Abs(g[i]))
			droop = math.Max(droop, s.Vdd-(vd[i]-g[i]))
			pdroop = math.Max(pdroop, s.Vdd-pp[i])
		}
		rep.GroundBounce[ch.Name] = bounce
		rep.RailDroop[ch.Name] = droop
		rep.PlaneDroop[ch.Name] = pdroop
	}
	return rep, nil
}
