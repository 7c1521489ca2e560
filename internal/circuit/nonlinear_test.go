package circuit

import (
	"math"
	"testing"
)

func TestDiodeForwardDrop(t *testing.T) {
	// 5 V through 1 kΩ into a diode: V_diode ≈ 0.6–0.75 V and KCL holds.
	c := New()
	in := c.Node("in")
	a := c.Node("a")
	if _, err := c.AddVSource("V1", in, Ground, DC(5)); err != nil {
		t.Fatal(err)
	}
	mustR(t, c, "R1", in, a, 1e3)
	c.AddDevice(NewDiode("D1", a, Ground, 1e-14, 1))
	x, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	vd := NodeVoltage(x, a)
	if vd < 0.55 || vd > 0.8 {
		t.Fatalf("diode drop = %g", vd)
	}
	// Current through the resistor equals the diode equation.
	ir := (5 - vd) / 1e3
	id := 1e-14 * (math.Exp(vd/thermalV) - 1)
	if e := math.Abs(ir-id) / ir; e > 1e-3 {
		t.Fatalf("KCL mismatch: iR=%g iD=%g", ir, id)
	}
}

func TestDiodeReverseBlocks(t *testing.T) {
	c := New()
	in := c.Node("in")
	a := c.Node("a")
	if _, err := c.AddVSource("V1", in, Ground, DC(-5)); err != nil {
		t.Fatal(err)
	}
	mustR(t, c, "R1", in, a, 1e3)
	c.AddDevice(NewDiode("D1", a, Ground, 1e-14, 1))
	x, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	// Nearly all voltage appears across the diode.
	if vd := NodeVoltage(x, a); vd > -4.9 {
		t.Fatalf("reverse diode should block: %g", vd)
	}
}

func TestDiodeDefaults(t *testing.T) {
	d := NewDiode("D", 1, 0, 0, 0)
	if d.Is != 1e-14 || d.N != 1 {
		t.Fatalf("defaults not applied: %+v", d)
	}
}

func TestNMOSSaturationPoint(t *testing.T) {
	// VDD = 3 V, RD = 1 kΩ, Vgs = 1.5 V, Vt = 0.7, K = 2 mA/V², λ = 0:
	// Id = K/2·(0.8)² = 0.64 mA → Vd = 3 − 0.64 = 2.36 V (still saturated).
	c := New()
	vdd := c.Node("vdd")
	d := c.Node("d")
	g := c.Node("g")
	if _, err := c.AddVSource("VDD", vdd, Ground, DC(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddVSource("VG", g, Ground, DC(1.5)); err != nil {
		t.Fatal(err)
	}
	mustR(t, c, "RD", vdd, d, 1e3)
	c.AddDevice(NewMOSFET("M1", d, g, Ground, false, 0.7, 2e-3, 0))
	x, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	if vd := NodeVoltage(x, d); math.Abs(vd-2.36) > 0.01 {
		t.Fatalf("drain voltage = %g want 2.36", vd)
	}
}

func TestNMOSTriodeRegion(t *testing.T) {
	// Strong gate drive with a big drain resistor pushes the FET into
	// triode: Vds small.
	c := New()
	vdd := c.Node("vdd")
	d := c.Node("d")
	g := c.Node("g")
	if _, err := c.AddVSource("VDD", vdd, Ground, DC(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddVSource("VG", g, Ground, DC(3)); err != nil {
		t.Fatal(err)
	}
	mustR(t, c, "RD", vdd, d, 10e3)
	c.AddDevice(NewMOSFET("M1", d, g, Ground, false, 0.7, 5e-3, 0))
	x, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	vd := NodeVoltage(x, d)
	if vd > 0.1 || vd < 0 {
		t.Fatalf("triode drain voltage = %g", vd)
	}
}

func TestMOSFETCutoff(t *testing.T) {
	c := New()
	vdd := c.Node("vdd")
	d := c.Node("d")
	if _, err := c.AddVSource("VDD", vdd, Ground, DC(3)); err != nil {
		t.Fatal(err)
	}
	mustR(t, c, "RD", vdd, d, 1e3)
	c.AddDevice(NewMOSFET("M1", d, Ground, Ground, false, 0.7, 2e-3, 0))
	x, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	if vd := NodeVoltage(x, d); math.Abs(vd-3) > 1e-3 {
		t.Fatalf("cutoff drain = %g want 3", vd)
	}
}

// cmosInverter wires a PMOS/NMOS pair.
func cmosInverter(t testing.TB, c *Circuit, in, out, vdd int, kn, kp float64) {
	t.Helper()
	c.AddDevice(NewMOSFET("MN", out, in, Ground, false, 0.7, kn, 0.01))
	c.AddDevice(NewMOSFET("MP", out, in, vdd, true, 0.7, kp, 0.01))
}

func TestCMOSInverterDCTransfer(t *testing.T) {
	eval := func(vin float64) float64 {
		c := New()
		vdd := c.Node("vdd")
		in := c.Node("in")
		out := c.Node("out")
		if _, err := c.AddVSource("VDD", vdd, Ground, DC(3.3)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddVSource("VIN", in, Ground, DC(vin)); err != nil {
			t.Fatal(err)
		}
		mustR(t, c, "RL", out, Ground, 1e8) // weak load defines the output
		cmosInverter(t, c, in, out, vdd, 2e-3, 2e-3)
		x, err := c.OP()
		if err != nil {
			t.Fatal(err)
		}
		return NodeVoltage(x, out)
	}
	if v := eval(0); math.Abs(v-3.3) > 0.02 {
		t.Fatalf("inverter(0) = %g want 3.3", v)
	}
	if v := eval(3.3); math.Abs(v) > 0.02 {
		t.Fatalf("inverter(3.3) = %g want 0", v)
	}
	// Symmetric sizing: the switching threshold sits near VDD/2.
	if v := eval(1.65); v < 0.5 || v > 2.8 {
		t.Fatalf("inverter(mid) = %g should be in transition", v)
	}
	// Monotonically decreasing transfer curve.
	prev := math.Inf(1)
	for _, vin := range []float64{0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.3} {
		v := eval(vin)
		if v > prev+1e-6 {
			t.Fatalf("transfer curve not monotone at vin=%g", vin)
		}
		prev = v
	}
}

func TestCMOSInverterTransient(t *testing.T) {
	c := New()
	vdd := c.Node("vdd")
	in := c.Node("in")
	out := c.Node("out")
	if _, err := c.AddVSource("VDD", vdd, Ground, DC(3.3)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddVSource("VIN", in, Ground,
		Pulse{V1: 0, V2: 3.3, Delay: 1e-9, Rise: 0.2e-9, Fall: 0.2e-9, Width: 3e-9}); err != nil {
		t.Fatal(err)
	}
	cmosInverter(t, c, in, out, vdd, 4e-3, 4e-3)
	mustC(t, c, "CL", out, Ground, 0.5e-12)
	res, err := c.Tran(TranOptions{Dt: 0.02e-9, Tstop: 7e-9, Method: Trapezoidal})
	if err != nil {
		t.Fatal(err)
	}
	vout := res.V(out)
	atTime := func(tt float64) float64 {
		for i, ti := range res.Time {
			if ti >= tt {
				return vout[i]
			}
		}
		return vout[len(vout)-1]
	}
	if v := atTime(0.5e-9); math.Abs(v-3.3) > 0.05 {
		t.Fatalf("output before switching = %g", v)
	}
	if v := atTime(3e-9); math.Abs(v) > 0.05 {
		t.Fatalf("output after falling input... rising edge drive = %g", v)
	}
	if v := atTime(6.5e-9); math.Abs(v-3.3) > 0.05 {
		t.Fatalf("output after input returns low = %g", v)
	}
}

// A CMOS driver discharging a load through a package inductance produces
// ground bounce on the die ground — the SSN mechanism of paper §6.2 in
// miniature, with dynamic device/parasite interaction every step.
func TestCMOSDriverGroundBounce(t *testing.T) {
	c := New()
	vdd := c.Node("vdd")
	dieGnd := c.Node("die_gnd")
	in := c.Node("in")
	out := c.Node("out")
	if _, err := c.AddVSource("VDD", vdd, Ground, DC(3.3)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddVSource("VIN", in, Ground,
		Pulse{V1: 0, V2: 3.3, Delay: 0.5e-9, Rise: 0.1e-9, Width: 5e-9}); err != nil {
		t.Fatal(err)
	}
	// Package ground pin: 2 nH + 10 mΩ.
	pl := mustL(t, c, "Lpkg", dieGnd, Ground, 2e-9)
	_ = pl
	c.AddDevice(NewMOSFET("MN", out, in, dieGnd, false, 0.7, 20e-3, 0.02))
	c.AddDevice(NewMOSFET("MP", out, in, vdd, true, 0.7, 20e-3, 0.02))
	mustC(t, c, "CL", out, Ground, 10e-12)
	res, err := c.Tran(TranOptions{Dt: 0.01e-9, Tstop: 4e-9, Method: Trapezoidal})
	if err != nil {
		t.Fatal(err)
	}
	vg := res.V(dieGnd)
	var peak float64
	for _, v := range vg {
		peak = math.Max(peak, v)
	}
	if peak < 0.05 {
		t.Fatalf("expected visible ground bounce, peak = %g", peak)
	}
	if peak > 3.3 {
		t.Fatalf("implausible ground bounce: %g", peak)
	}
}

// NewDiode constructs a diode; defaults: Is = 1e-14 A, N = 1.
func NewDiode(name string, anode, cathode int, is, n float64) *Diode {
	if is <= 0 {
		is = 1e-14
	}
	if n <= 0 {
		n = 1
	}
	return &Diode{name: name, A: anode, K: cathode, Is: is, N: n}
}
