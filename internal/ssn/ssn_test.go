package ssn

import (
	"math"
	"testing"

	"pdnsim/internal/circuit"
	"pdnsim/internal/geom"
)

// smallBoard returns a quick-to-extract board for unit tests.
func smallBoard() Board {
	return Board{
		Shape:    geom.RectShape(0, 0, 50e-3, 40e-3),
		PlaneSep: 0.4e-3,
		EpsR:     4.5,
		SheetRes: 0.5e-3,
		MeshNx:   10, MeshNy: 8,
		ExtraNodes: 6,
	}
}

func defaultVRM() VRM {
	return VRM{At: geom.Point{X: 2e-3, Y: 2e-3}, V: 3.3, R: 5e-3, L: 10e-9}
}

func oneChip(kind DriverKind, switching int) Chip {
	return Chip{
		Name: "U1", At: geom.Point{X: 40e-3, Y: 30e-3},
		Drivers: 8, Switching: switching, Vdd: 3.3,
		VddPins: 2, Kind: kind,
		Delay: 1e-9, Width: 4e-9, LoadC: 15e-12,
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Board{}, defaultVRM(), nil, nil); err == nil {
		t.Fatal("invalid stackup must error")
	}
	b := smallBoard()
	bad := oneChip(RampDriver, 9)
	bad.Drivers = 8
	if _, err := Build(b, defaultVRM(), []Chip{bad}, nil); err == nil {
		t.Fatal("switching > drivers must error")
	}
	if _, err := Build(b, defaultVRM(), nil, []Decap{{Name: "C1", At: geom.Point{X: 25e-3, Y: 20e-3}}}); err == nil {
		t.Fatal("zero-value decap must error")
	}
}

func TestBuildTopology(t *testing.T) {
	sys, err := Build(smallBoard(), defaultVRM(), []Chip{oneChip(RampDriver, 4)},
		[]Decap{{Name: "C1", At: geom.Point{X: 30e-3, Y: 25e-3}, C: 100e-9, ESR: 20e-3, ESL: 1e-9}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Chips) != 1 {
		t.Fatalf("chips = %d", len(sys.Chips))
	}
	ch := sys.Chips[0]
	if len(ch.Outs) != 4 {
		t.Fatalf("driver outputs = %d", len(ch.Outs))
	}
	if ch.DieVdd == circuit.Ground || ch.DieGnd == circuit.Ground {
		t.Fatal("die rails must be distinct from ground")
	}
	// Ports: VRM + 1 chip + 1 decap.
	if sys.Network.NumPorts != 3 {
		t.Fatalf("plane ports = %d", sys.Network.NumPorts)
	}
}

func TestDCOperatingPoint(t *testing.T) {
	sys, err := Build(smallBoard(), defaultVRM(), []Chip{oneChip(RampDriver, 2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, err := sys.Circuit.OP()
	if err != nil {
		t.Fatal(err)
	}
	// Before switching, rails must sit at the VRM voltage (idle drivers
	// leak only through Roff).
	ch := sys.Chips[0]
	vd := circuit.NodeVoltage(x, ch.DieVdd)
	if math.Abs(vd-3.3) > 0.01 {
		t.Fatalf("idle die rail = %g", vd)
	}
	if g := circuit.NodeVoltage(x, ch.DieGnd); math.Abs(g) > 0.01 {
		t.Fatalf("idle die ground = %g", g)
	}
}

func TestRunProducesSSN(t *testing.T) {
	sys, err := Build(smallBoard(), defaultVRM(), []Chip{oneChip(RampDriver, 6)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(0.02e-9, 8e-9, circuit.Trapezoidal)
	if err != nil {
		t.Fatal(err)
	}
	bounce := rep.GroundBounce["U1"]
	if bounce <= 1e-3 {
		t.Fatalf("expected measurable ground bounce, got %g", bounce)
	}
	if bounce > 3.3 {
		t.Fatalf("implausible bounce %g", bounce)
	}
	if rep.RailDroop["U1"] <= 1e-3 {
		t.Fatalf("expected rail droop, got %g", rep.RailDroop["U1"])
	}
	if rep.PlaneDroop["U1"] <= 0 {
		t.Fatal("expected plane-port droop")
	}
	// Die-level noise exceeds board-level noise (package L dominates).
	if rep.GroundBounce["U1"] < rep.PlaneDroop["U1"]/10 {
		t.Fatalf("bounce %g implausibly small vs plane droop %g",
			rep.GroundBounce["U1"], rep.PlaneDroop["U1"])
	}
}

// The headline §6.2 trend: noise grows with the number of simultaneously
// switching drivers.
func TestNoiseGrowsWithSwitchingCount(t *testing.T) {
	counts := []int{1, 4, 8}
	var prev float64
	for _, n := range counts {
		sys, err := Build(smallBoard(), defaultVRM(), []Chip{oneChip(RampDriver, n)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Run(0.02e-9, 6e-9, circuit.Trapezoidal)
		if err != nil {
			t.Fatal(err)
		}
		b := rep.GroundBounce["U1"]
		if b <= prev {
			t.Fatalf("bounce should grow with switching count: %d → %g (prev %g)", n, b, prev)
		}
		prev = b
	}
}

// The second §6.2 trend: decoupling capacitors near the chip reduce the
// plane-level droop.
func TestDecapReducesPlaneNoise(t *testing.T) {
	run := func(decaps []Decap) float64 {
		sys, err := Build(smallBoard(), defaultVRM(), []Chip{oneChip(RampDriver, 6)}, decaps)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Run(0.02e-9, 8e-9, circuit.Trapezoidal)
		if err != nil {
			t.Fatal(err)
		}
		return rep.PlaneDroop["U1"]
	}
	bare := run(nil)
	// Keep the decaps one mesh cell away from the chip port (5 mm pitch).
	decapped := run([]Decap{
		{Name: "C1", At: geom.Point{X: 32e-3, Y: 28e-3}, C: 100e-9, ESR: 15e-3, ESL: 0.8e-9},
		{Name: "C2", At: geom.Point{X: 43e-3, Y: 22e-3}, C: 100e-9, ESR: 15e-3, ESL: 0.8e-9},
	})
	if decapped >= bare {
		t.Fatalf("decaps must reduce plane droop: %g vs %g", decapped, bare)
	}
}

func TestCMOSDriverSystem(t *testing.T) {
	ch := oneChip(CMOSDriver, 2)
	sys, err := Build(smallBoard(), defaultVRM(), []Chip{ch}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(0.05e-9, 6e-9, circuit.Trapezoidal)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GroundBounce["U1"] <= 1e-4 {
		t.Fatalf("CMOS system bounce = %g", rep.GroundBounce["U1"])
	}
}

func TestIBISDriverSystem(t *testing.T) {
	ch := oneChip(IBISDriver, 2)
	sys, err := Build(smallBoard(), defaultVRM(), []Chip{ch}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(0.05e-9, 6e-9, circuit.Trapezoidal)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GroundBounce["U1"] <= 1e-4 {
		t.Fatalf("IBIS system bounce = %g", rep.GroundBounce["U1"])
	}
}

func TestSignalLineInteraction(t *testing.T) {
	ch := oneChip(RampDriver, 2)
	ch.Line = &SignalLine{Z0: 50, Td: 0.8e-9, Rterm: 50}
	sys, err := Build(smallBoard(), defaultVRM(), []Chip{ch}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(0.05e-9, 8e-9, circuit.Trapezoidal)
	if err != nil {
		t.Fatal(err)
	}
	// The far end of the line must see the (delayed, divided) output swing.
	far, err := rep.Result.VByName("u_U1_d0_t" + "")
	if err == nil {
		_ = far
	}
	out := rep.Result.V(sys.Chips[0].Outs[0])
	if PeakToPeak(out) < 1 {
		t.Fatalf("driver output swing too small: %g", PeakToPeak(out))
	}
}

func TestPeakToPeak(t *testing.T) {
	if PeakToPeak(nil) != 0 {
		t.Fatal("empty waveform")
	}
	if PeakToPeak([]float64{1, -2, 3}) != 5 {
		t.Fatal("peak-to-peak")
	}
}

// PeakToPeak is the waveform metric these tests assert on.
func PeakToPeak(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return hi - lo
}
