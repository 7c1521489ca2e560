package pkgmodel

import (
	"math"
	"testing"

	"pdnsim/internal/circuit"
)

func TestPinValidate(t *testing.T) {
	if err := (Pin{R: -1, L: 1e-9}).Validate(); err == nil {
		t.Fatal("negative R must error")
	}
	if err := (Pin{}).Validate(); err == nil {
		t.Fatal("all-zero pin must error")
	}
	if err := QFPPin.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := BGAPin.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := WirebondPin.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPinAttachDCDrop(t *testing.T) {
	c := circuit.New()
	board := c.Node("board")
	die := c.Node("die")
	if _, err := c.AddVSource("V1", board, circuit.Ground, circuit.DC(3.3)); err != nil {
		t.Fatal(err)
	}
	pin := Pin{R: 0.1, L: 2e-9, C: 1e-12}
	if err := pin.Attach(c, "p1", board, die); err != nil {
		t.Fatal(err)
	}
	// 33 mA load.
	if _, err := c.AddResistor("RL", die, circuit.Ground, 100); err != nil {
		t.Fatal(err)
	}
	x, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	want := 3.3 * 100 / 100.1
	if v := circuit.NodeVoltage(x, die); math.Abs(v-want) > 1e-6 {
		t.Fatalf("die rail = %g want %g", v, want)
	}
}

func TestPinInductiveKick(t *testing.T) {
	// A current step through the pin produces L·di/dt droop at the die.
	c := circuit.New()
	board := c.Node("board")
	die := c.Node("die")
	if _, err := c.AddVSource("V1", board, circuit.Ground, circuit.DC(3.3)); err != nil {
		t.Fatal(err)
	}
	pin := Pin{R: 0.02, L: 5e-9}
	if err := pin.Attach(c, "p1", board, die); err != nil {
		t.Fatal(err)
	}
	// Switched load: 33 Ω engages at 1 ns.
	if _, err := c.AddSwitch("S1", die, circuit.Ground, 33, 1e9,
		func(tt float64) bool { return tt >= 1e-9 }); err != nil {
		t.Fatal(err)
	}
	res, err := c.Tran(circuit.TranOptions{Dt: 0.02e-9, Tstop: 6e-9})
	if err != nil {
		t.Fatal(err)
	}
	v := res.V(die)
	lo := math.Inf(1)
	for _, x := range v {
		lo = math.Min(lo, x)
	}
	if lo > 1.0 {
		t.Fatalf("expected a deep inductive droop, min = %g", lo)
	}
	// Settles back near the resistive divider value.
	want := 3.3 * 33 / 33.02
	if last := v[len(v)-1]; math.Abs(last-want) > 0.05 {
		t.Fatalf("post-droop settle = %g want %g", last, want)
	}
}

func TestBondwireL(t *testing.T) {
	// A 1 mm, 12.5 µm-radius bondwire is the classic ≈0.8–1 nH/mm.
	l := BondwireL(1e-3, 12.5e-6)
	if l < 0.6e-9 || l > 1.2e-9 {
		t.Fatalf("bondwire L = %g", l)
	}
	// Longer wire → more inductance, superlinear (log term).
	if BondwireL(2e-3, 12.5e-6) <= 2*l*0.99 {
		t.Fatal("bondwire inductance should grow slightly superlinearly")
	}
	if BondwireL(-1, 1e-6) != 0 || BondwireL(1e-3, 2e-3) != 0 {
		t.Fatal("invalid geometry must return 0")
	}
}

func TestLeadL(t *testing.T) {
	// A 10 mm QFP lead, 0.3 mm wide: several nH.
	l := LeadL(10e-3, 0.3e-3, 0.15e-3)
	if l < 5e-9 || l > 12e-9 {
		t.Fatalf("lead L = %g", l)
	}
	if LeadL(0, 1, 1) != 0 {
		t.Fatal("degenerate lead must return 0")
	}
}

func TestViaL(t *testing.T) {
	// A 1.6 mm board via with a 0.3 mm barrel: the classic ≈1 nH.
	l := ViaL(1.6e-3, 0.3e-3)
	if l < 0.7e-9 || l > 1.6e-9 {
		t.Fatalf("via L = %g", l)
	}
	// Thinner barrel → more inductance.
	if ViaL(1.6e-3, 0.15e-3) <= l {
		t.Fatal("thinner via must have more inductance")
	}
	if ViaL(0, 1e-3) != 0 || ViaL(1e-3, 0) != 0 || ViaL(1e-4, 1e-3) != 0 {
		t.Fatal("degenerate vias must return 0")
	}
}

func TestRailPair(t *testing.T) {
	c := circuit.New()
	bvdd := c.Node("bvdd")
	if _, err := c.AddVSource("V1", bvdd, circuit.Ground, circuit.DC(3.3)); err != nil {
		t.Fatal(err)
	}
	dieVdd, dieGnd, err := RailPair(c, "u1", bvdd, circuit.Ground, BGAPin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddResistor("RL", dieVdd, dieGnd, 330); err != nil {
		t.Fatal(err)
	}
	x, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	v := circuit.NodeVoltage(x, dieVdd) - circuit.NodeVoltage(x, dieGnd)
	if math.Abs(v-3.3*330/330.04) > 1e-3 {
		t.Fatalf("die rail differential = %g", v)
	}
	if circuit.NodeVoltage(x, dieGnd) <= 0 {
		t.Fatal("die ground should sit slightly above board ground under load")
	}
}

// Closed-form package-parasitic estimates the tests check against
// textbook values; the models above take their parasitics as inputs.

// BondwireL estimates the partial self-inductance of a round bondwire of
// length l and radius r (both metres): L = μ0·l/(2π)·(ln(2l/r) − 0.75).
func BondwireL(l, r float64) float64 {
	if l <= 0 || r <= 0 || r >= l {
		return 0
	}
	const mu0over2pi = 2e-7
	return mu0over2pi * l * (math.Log(2*l/r) - 0.75)
}

// LeadL estimates the partial self-inductance of a flat rectangular lead of
// length l, width w and thickness t: L = μ0·l/(2π)·(ln(2l/(w+t)) + 0.5).
func LeadL(l, w, t float64) float64 {
	if l <= 0 || w+t <= 0 {
		return 0
	}
	const mu0over2pi = 2e-7
	return mu0over2pi * l * (math.Log(2*l/(w+t)) + 0.5)
}

// ViaL estimates the partial self-inductance of a cylindrical via of length
// h and barrel diameter d (both metres), the standard closed form
// L = μ0·h/(2π)·(ln(4h/d) + 1). Vias connect pins and decaps to the plane
// pair; their inductance adds in series with the package pin.
func ViaL(h, d float64) float64 {
	if h <= 0 || d <= 0 || d >= 4*h {
		return 0
	}
	const mu0over2pi = 2e-7
	return mu0over2pi * h * (math.Log(4*h/d) + 1)
}
