package device

import (
	"math"
	"testing"

	"pdnsim/internal/circuit"
)

func railCircuit(t testing.TB) (*circuit.Circuit, int, int) {
	t.Helper()
	c := circuit.New()
	vdd := c.Node("vdd")
	if _, err := c.AddVSource("VDD", vdd, circuit.Ground, circuit.DC(3.3)); err != nil {
		t.Fatal(err)
	}
	return c, vdd, circuit.Ground
}

func peak(v []float64) (hi, lo float64) {
	hi, lo = math.Inf(-1), math.Inf(1)
	for _, x := range v {
		hi = math.Max(hi, x)
		lo = math.Min(lo, x)
	}
	return hi, lo
}

func TestAddCMOSDriverValidation(t *testing.T) {
	c, vdd, vss := railCircuit(t)
	out := c.Node("out")
	bad := DefaultCMOS()
	bad.KN = 0
	if err := AddCMOSDriver(c, "d", out, vdd, vss, circuit.DC(0), bad); err == nil {
		t.Fatal("zero KN must error")
	}
}

func TestCMOSDriverSwitches(t *testing.T) {
	c, vdd, vss := railCircuit(t)
	out := c.Node("out")
	gate := circuit.Pulse{V1: 0, V2: 3.3, Delay: 1e-9, Rise: 0.2e-9, Width: 10e-9}
	if err := AddCMOSDriver(c, "drv", out, vdd, vss, gate, DefaultCMOS()); err != nil {
		t.Fatal(err)
	}
	res, err := c.Tran(circuit.TranOptions{Dt: 0.02e-9, Tstop: 5e-9})
	if err != nil {
		t.Fatal(err)
	}
	v := res.V(out)
	if math.Abs(v[0]-3.3) > 0.05 {
		t.Fatalf("idle output = %g want 3.3 (inverter, gate low)", v[0])
	}
	if last := v[len(v)-1]; math.Abs(last) > 0.05 {
		t.Fatalf("driven output = %g want 0", last)
	}
}

func TestRampDriverValidation(t *testing.T) {
	c, vdd, vss := railCircuit(t)
	out := c.Node("out")
	if err := AddRampDriver(c, "d", out, vdd, vss, nil, DefaultRamp()); err == nil {
		t.Fatal("nil schedule must error")
	}
	bad := DefaultRamp()
	bad.Roff = bad.Ron
	if err := AddRampDriver(c, "d", out, vdd, vss, PeriodicSchedule(0, 1, 0), bad); err == nil {
		t.Fatal("Roff ≤ Ron must error")
	}
}

func TestRampDriverOutputSwing(t *testing.T) {
	c, vdd, vss := railCircuit(t)
	out := c.Node("out")
	if err := AddRampDriver(c, "drv", out, vdd, vss,
		PeriodicSchedule(1e-9, 4e-9, 0), DefaultRamp()); err != nil {
		t.Fatal(err)
	}
	res, err := c.Tran(circuit.TranOptions{Dt: 0.05e-9, Tstop: 8e-9})
	if err != nil {
		t.Fatal(err)
	}
	v := res.V(out)
	if math.Abs(v[0]) > 0.05 {
		t.Fatalf("idle low output = %g", v[0])
	}
	hi, _ := peak(v)
	if math.Abs(hi-3.3) > 0.05 {
		t.Fatalf("driven high = %g want 3.3", hi)
	}
	// RC slew: 25 Ω × 10 pF → τ = 0.25 ns; value at +0.25 ns ≈ 63 %.
	var vTau float64
	for i, tt := range res.Time {
		if tt >= 1.25e-9 {
			vTau = v[i]
			break
		}
	}
	if math.Abs(vTau-3.3*0.632) > 0.2 {
		t.Fatalf("slew at τ = %g want %g", vTau, 3.3*0.632)
	}
}

func TestPeriodicSchedule(t *testing.T) {
	s := PeriodicSchedule(1e-9, 2e-9, 5e-9)
	cases := []struct {
		t    float64
		want bool
	}{
		{0, false}, {1.5e-9, true}, {2.9e-9, true}, {3.5e-9, false},
		{6.5e-9, true}, {8.5e-9, false}, {11.5e-9, true},
	}
	for _, c := range cases {
		if s(c.t) != c.want {
			t.Fatalf("schedule(%g) = %v", c.t, s(c.t))
		}
	}
}

func TestIVTableValidation(t *testing.T) {
	if err := (IVTable{V: []float64{0}, I: []float64{0}}).Validate(); err == nil {
		t.Fatal("short table must error")
	}
	if err := (IVTable{V: []float64{1, 0}, I: []float64{0, 1}}).Validate(); err == nil {
		t.Fatal("descending table must error")
	}
	if err := (IVTable{V: []float64{0, 1}, I: []float64{0, 1}}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIVTableEval(t *testing.T) {
	tab := IVTable{V: []float64{0, 1, 2}, I: []float64{0, 2, 3}}
	i, g := tab.eval(0.5)
	if math.Abs(i-1) > 1e-12 || math.Abs(g-2) > 1e-12 {
		t.Fatalf("eval(0.5) = %g, %g", i, g)
	}
	i, g = tab.eval(1.5)
	if math.Abs(i-2.5) > 1e-12 || math.Abs(g-1) > 1e-12 {
		t.Fatalf("eval(1.5) = %g, %g", i, g)
	}
	// Extrapolation continues the edge slope.
	i, _ = tab.eval(3)
	if math.Abs(i-4) > 1e-12 {
		t.Fatalf("eval(3) = %g", i)
	}
	i, _ = tab.eval(-1)
	if math.Abs(i+2) > 1e-12 {
		t.Fatalf("eval(-1) = %g", i)
	}
}

func TestIBISDriverValidation(t *testing.T) {
	if _, err := NewIBISDriver("d", 1, 2, 0, IVTable{}, TypicalPullUp(3.3, 25), LinearRamp(0, 1e-9, 0)); err == nil {
		t.Fatal("bad pull-down must error")
	}
	if _, err := NewIBISDriver("d", 1, 2, 0, TypicalPullDown(3.3, 25), TypicalPullUp(3.3, 25), nil); err == nil {
		t.Fatal("nil ramp must error")
	}
}

func TestIBISDriverDrivesRailToRail(t *testing.T) {
	c, vdd, vss := railCircuit(t)
	out := c.Node("out")
	drv, err := NewIBISDriver("drv", out, vdd, vss,
		TypicalPullDown(3.3, 25), TypicalPullUp(3.3, 25),
		LinearRamp(1e-9, 0.3e-9, 6e-9))
	if err != nil {
		t.Fatal(err)
	}
	c.AddDevice(drv)
	if _, err := c.AddCapacitor("CL", out, circuit.Ground, 5e-12); err != nil {
		t.Fatal(err)
	}
	res, err := c.Tran(circuit.TranOptions{Dt: 0.05e-9, Tstop: 10e-9})
	if err != nil {
		t.Fatal(err)
	}
	v := res.V(out)
	if math.Abs(v[0]) > 0.1 {
		t.Fatalf("idle output = %g want ≈0", v[0])
	}
	hi, _ := peak(v)
	if math.Abs(hi-3.3) > 0.2 {
		t.Fatalf("driven high = %g want ≈3.3", hi)
	}
	if last := v[len(v)-1]; math.Abs(last) > 0.2 {
		t.Fatalf("returned low = %g want ≈0", last)
	}
}

func TestLinearRamp(t *testing.T) {
	r := LinearRamp(1, 2, 10)
	cases := []struct{ t, want float64 }{
		{0, 0}, {1, 0}, {2, 0.5}, {3, 1}, {5, 1}, {11, 0.5}, {13, 0},
	}
	for _, c := range cases {
		if got := r(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("ramp(%g) = %g want %g", c.t, got, c.want)
		}
	}
	// Single-edge variant.
	r1 := LinearRamp(0, 1, 0)
	if r1(10) != 1 {
		t.Fatal("single-edge ramp must hold high")
	}
}

func TestTypicalTablesSymmetry(t *testing.T) {
	pd := TypicalPullDown(3.3, 25)
	pu := TypicalPullUp(3.3, 25)
	if err := pd.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := pu.Validate(); err != nil {
		t.Fatal(err)
	}
	// The pull-up is the odd mirror of the pull-down.
	n := len(pd.V)
	for k := 0; k < n; k++ {
		if math.Abs(pu.V[k]+pd.V[n-1-k]) > 1e-12 || math.Abs(pu.I[k]+pd.I[n-1-k]) > 1e-12 {
			t.Fatalf("tables not mirrored at %d", k)
		}
	}
}
