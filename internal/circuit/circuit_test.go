package circuit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNodeManagement(t *testing.T) {
	c := New()
	if c.NumNodes() != 1 || c.NodeName(0) != "0" {
		t.Fatal("ground node missing")
	}
	a := c.Node("in")
	b := c.Node("out")
	if a == b || a == Ground || b == Ground {
		t.Fatal("node allocation")
	}
	if c.Node("in") != a {
		t.Fatal("node lookup must be idempotent")
	}
	if i, ok := c.LookupNode("out"); !ok || i != b {
		t.Fatal("LookupNode")
	}
	if _, ok := c.LookupNode("nope"); ok {
		t.Fatal("LookupNode must miss unknown names")
	}
}

func TestElementValidation(t *testing.T) {
	c := New()
	n := c.Node("n")
	if _, err := c.AddResistor("R1", n, Ground, -5); err == nil {
		t.Fatal("negative resistor")
	}
	if _, err := c.AddCapacitor("C1", n, Ground, 0); err == nil {
		t.Fatal("zero capacitor")
	}
	if _, err := c.AddInductor("L1", n, Ground, -1); err == nil {
		t.Fatal("negative inductor")
	}
	if _, err := c.AddVSource("V1", n, Ground, nil); err == nil {
		t.Fatal("nil waveform")
	}
	if _, err := c.AddISource("I1", n, Ground, nil); err == nil {
		t.Fatal("nil waveform")
	}
	if _, err := c.AddSwitch("S1", n, Ground, 10, 5, func(float64) bool { return true }); err == nil {
		t.Fatal("Ron >= Roff must error")
	}
	if _, err := c.AddSwitch("S1", n, Ground, 1, 1e9, nil); err == nil {
		t.Fatal("nil switch control")
	}
	if _, err := c.AddTLine("T1", n, Ground, n, Ground, -50, 1e-9); err == nil {
		t.Fatal("negative Z0")
	}
	l1, _ := c.AddInductor("L1", n, Ground, 1e-9)
	l2, _ := c.AddInductor("L2", n, Ground, 1e-9)
	if _, err := c.AddMutual("K1", l1, l2, 2e-9); err == nil {
		t.Fatal("M > sqrt(L1 L2) must error")
	}
	if _, err := c.AddMutual("K1", l1, l1, 0.1e-9); err == nil {
		t.Fatal("self-mutual must error")
	}
	if _, err := c.AddMutual("K2", l1, l2, 0.5e-9); err != nil {
		t.Fatal(err)
	}
}

func TestDCVoltageDivider(t *testing.T) {
	c := New()
	in := c.Node("in")
	mid := c.Node("mid")
	if _, err := c.AddVSource("V1", in, Ground, DC(10)); err != nil {
		t.Fatal(err)
	}
	mustR(t, c, "R1", in, mid, 1e3)
	mustR(t, c, "R2", mid, Ground, 3e3)
	x, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	if v := NodeVoltage(x, mid); math.Abs(v-7.5) > 1e-6 {
		t.Fatalf("divider = %g", v)
	}
	if v := NodeVoltage(x, in); math.Abs(v-10) > 1e-9 {
		t.Fatalf("source node = %g", v)
	}
}

func TestDCCurrentSource(t *testing.T) {
	c := New()
	n := c.Node("n")
	if _, err := c.AddISource("I1", Ground, n, DC(2e-3)); err != nil {
		t.Fatal(err)
	}
	mustR(t, c, "R1", n, Ground, 500)
	x, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	if v := NodeVoltage(x, n); math.Abs(v-1.0) > 1e-6 {
		t.Fatalf("I·R = %g", v)
	}
}

func TestDCInductorIsShort(t *testing.T) {
	c := New()
	in := c.Node("in")
	out := c.Node("out")
	if _, err := c.AddVSource("V1", in, Ground, DC(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddInductor("L1", in, out, 1e-6); err != nil {
		t.Fatal(err)
	}
	mustR(t, c, "R1", out, Ground, 1e3)
	x, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	if v := NodeVoltage(x, out); math.Abs(v-5) > 1e-6 {
		t.Fatalf("inductor not a DC short: %g", v)
	}
	// Inductor branch current = 5 mA.
	l := c.inductors[0]
	if i := x[l.branch]; math.Abs(i-5e-3) > 1e-8 {
		t.Fatalf("inductor current = %g", i)
	}
}

func TestDCFloatingCapacitorNode(t *testing.T) {
	// A node connected only through a capacitor must not make DC singular
	// (gshunt keeps it defined, at 0 V).
	c := New()
	in := c.Node("in")
	fl := c.Node("float")
	if _, err := c.AddVSource("V1", in, Ground, DC(5)); err != nil {
		t.Fatal(err)
	}
	mustC(t, c, "C1", in, fl, 1e-9)
	x, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	if v := NodeVoltage(x, fl); math.Abs(v) > 1e-6 {
		t.Fatalf("floating node = %g", v)
	}
}

func mustR(t testing.TB, c *Circuit, name string, a, b int, r float64) *Resistor {
	t.Helper()
	el, err := c.AddResistor(name, a, b, r)
	if err != nil {
		t.Fatal(err)
	}
	return el
}

func mustC(t testing.TB, c *Circuit, name string, a, b int, f float64) *Capacitor {
	t.Helper()
	el, err := c.AddCapacitor(name, a, b, f)
	if err != nil {
		t.Fatal(err)
	}
	return el
}

func mustL(t testing.TB, c *Circuit, name string, a, b int, l float64) *Inductor {
	t.Helper()
	el, err := c.AddInductor(name, a, b, l)
	if err != nil {
		t.Fatal(err)
	}
	return el
}

func TestTranValidation(t *testing.T) {
	c := New()
	n := c.Node("n")
	mustR(t, c, "R1", n, Ground, 1e3)
	if _, err := c.Tran(TranOptions{Dt: 0, Tstop: 1}); err == nil {
		t.Fatal("zero dt must error")
	}
	if _, err := c.Tran(TranOptions{Dt: 1, Tstop: 0.5}); err == nil {
		t.Fatal("tstop < dt must error")
	}
}

// RC charging must follow 1 − exp(−t/RC); trapezoidal must beat backward
// Euler in accuracy at the same step.
func TestTranRCCharging(t *testing.T) {
	build := func() *Circuit {
		c := New()
		in := c.Node("in")
		out := c.Node("out")
		if _, err := c.AddVSource("V1", in, Ground, Pulse{V1: 0, V2: 1, Rise: 1e-12, Width: 1}); err != nil {
			t.Fatal(err)
		}
		mustR(t, c, "R1", in, out, 1e3)
		mustC(t, c, "C1", out, Ground, 1e-9)
		return c
	}
	tau := 1e-6
	errFor := func(m Method) float64 {
		res, err := build().Tran(TranOptions{Dt: 20e-9, Tstop: 3e-6, Method: m})
		if err != nil {
			t.Fatal(err)
		}
		v, err := res.VByName("out")
		if err != nil {
			t.Fatal(err)
		}
		var maxErr float64
		for i, tt := range res.Time {
			want := 1 - math.Exp(-tt/tau)
			maxErr = math.Max(maxErr, math.Abs(v[i]-want))
		}
		return maxErr
	}
	eTrap := errFor(Trapezoidal)
	eBE := errFor(BackwardEuler)
	// The input step is resolved over one dt, so both schemes carry an
	// O(dt/τ) start-up error (dt/τ = 2%) on top of their integration error.
	if eTrap > 1.2e-2 {
		t.Fatalf("trapezoidal RC error too large: %g", eTrap)
	}
	if eBE > 4e-2 {
		t.Fatalf("backward Euler RC error too large: %g", eBE)
	}
}

// With a smooth (fully resolved) ramp input, the integration error dominates
// and the second-order trapezoidal scheme must beat backward Euler.
func TestTranIntegrationOrder(t *testing.T) {
	const (
		r   = 1e3
		cap = 1e-9
		tau = r * cap
		tr  = 500e-9 // ramp time, 25 steps
		dt  = 20e-9
	)
	build := func() *Circuit {
		c := New()
		in := c.Node("in")
		out := c.Node("out")
		if _, err := c.AddVSource("V1", in, Ground, Pulse{V1: 0, V2: 1, Rise: tr, Width: 1}); err != nil {
			t.Fatal(err)
		}
		mustR(t, c, "R1", in, out, r)
		mustC(t, c, "C1", out, Ground, cap)
		return c
	}
	// Exact response of an RC to a 0→1 ramp over tr.
	exact := func(tt float64) float64 {
		m := 1 / tr
		if tt <= tr {
			return m * (tt - tau + tau*math.Exp(-tt/tau))
		}
		vtr := m * (tr - tau + tau*math.Exp(-tr/tau))
		return 1 + (vtr-1)*math.Exp(-(tt-tr)/tau)
	}
	errFor := func(m Method) float64 {
		res, err := build().Tran(TranOptions{Dt: dt, Tstop: 4e-6, Method: m})
		if err != nil {
			t.Fatal(err)
		}
		v := res.V(res.c.Node("out"))
		var maxErr float64
		for i, tt := range res.Time {
			maxErr = math.Max(maxErr, math.Abs(v[i]-exact(tt)))
		}
		return maxErr
	}
	eTrap := errFor(Trapezoidal)
	eBE := errFor(BackwardEuler)
	if eTrap >= eBE {
		t.Fatalf("trapezoidal (%g) should beat backward Euler (%g) on smooth input", eTrap, eBE)
	}
	if eTrap > 1e-3 {
		t.Fatalf("trapezoidal ramp error too large: %g", eTrap)
	}
}

// A UIC LC tank seeded with inductor current must oscillate at
// 1/(2π√(LC)) with amplitude I0·√(L/C).
func TestTranLCOscillator(t *testing.T) {
	c := New()
	n := c.Node("tank")
	l := mustL(t, c, "L1", n, Ground, 1e-6)
	mustC(t, c, "C1", n, Ground, 1e-9)
	l.IC = 1e-3
	f0 := 1 / (2 * math.Pi * math.Sqrt(1e-6*1e-9)) // 5.03 MHz
	res, err := c.Tran(TranOptions{Dt: 1e-9, Tstop: 3 / f0, Method: Trapezoidal, UIC: true})
	if err != nil {
		t.Fatal(err)
	}
	v := res.V(n)
	// Count zero crossings to estimate frequency.
	var crossings []float64
	for i := 1; i < len(v); i++ {
		if v[i-1] < 0 && v[i] >= 0 || v[i-1] > 0 && v[i] <= 0 {
			f := v[i-1] / (v[i-1] - v[i])
			crossings = append(crossings, res.Time[i-1]+f*(res.Time[i]-res.Time[i-1]))
		}
	}
	if len(crossings) < 4 {
		t.Fatalf("too few crossings: %d", len(crossings))
	}
	period := 2 * (crossings[len(crossings)-1] - crossings[0]) / float64(len(crossings)-1)
	fMeas := 1 / period
	if e := math.Abs(fMeas-f0) / f0; e > 0.01 {
		t.Fatalf("LC frequency: got %g want %g (err %g)", fMeas, f0, e)
	}
	// Amplitude I0·√(L/C) ≈ 31.6 mV; trapezoidal conserves it well.
	want := 1e-3 * math.Sqrt(1e-6/1e-9)
	var peak float64
	for _, vi := range v {
		peak = math.Max(peak, math.Abs(vi))
	}
	if e := math.Abs(peak-want) / want; e > 0.02 {
		t.Fatalf("LC amplitude: got %g want %g", peak, want)
	}
}

// Series RLC step response: check the damped ringing frequency.
func TestTranRLCRinging(t *testing.T) {
	c := New()
	in := c.Node("in")
	mid := c.Node("mid")
	out := c.Node("out")
	if _, err := c.AddVSource("V1", in, Ground, Pulse{V1: 0, V2: 1, Rise: 1e-12, Width: 1}); err != nil {
		t.Fatal(err)
	}
	mustR(t, c, "R1", in, mid, 2) // ζ = 0.316: ~35 % overshoot expected
	mustL(t, c, "L1", mid, out, 10e-9)
	mustC(t, c, "C1", out, Ground, 1e-9)
	res, err := c.Tran(TranOptions{Dt: 0.05e-9, Tstop: 60e-9, Method: Trapezoidal})
	if err != nil {
		t.Fatal(err)
	}
	v := res.V(out)
	// Final value must settle to 1.
	if math.Abs(v[len(v)-1]-1) > 0.02 {
		t.Fatalf("RLC final value = %g", v[len(v)-1])
	}
	// ζ = (R/2)·√(C/L) = 0.316 → overshoot exp(−πζ/√(1−ζ²)) ≈ 35 %.
	var peak float64
	for _, vi := range v {
		peak = math.Max(peak, vi)
	}
	wantPeak := 1 + math.Exp(-math.Pi*0.316/math.Sqrt(1-0.316*0.316))
	if math.Abs(peak-wantPeak) > 0.03 {
		t.Fatalf("RLC overshoot: peak %g want %g", peak, wantPeak)
	}
}

func TestTranMutualInductance(t *testing.T) {
	// With the secondary shorted, the effective primary inductance is
	// L1(1−k²); measure the current ramp slope under a DC voltage.
	slope := func(k float64) float64 {
		c := New()
		in := c.Node("in")
		l1 := mustL(t, c, "L1", in, Ground, 100e-9)
		l2 := mustL(t, c, "L2", c.Node("sec"), Ground, 100e-9)
		mustR(t, c, "Rs", c.Node("sec"), Ground, 1e-3) // near-short
		if k > 0 {
			if _, err := c.AddMutual("K1", l1, l2, k*100e-9); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.AddVSource("V1", in, Ground, Pulse{V1: 0, V2: 1, Rise: 1e-12, Width: 1}); err != nil {
			t.Fatal(err)
		}
		res, err := c.Tran(TranOptions{Dt: 0.1e-9, Tstop: 20e-9, Method: Trapezoidal, UIC: true})
		if err != nil {
			t.Fatal(err)
		}
		// Current through V1 == −current through L1; use source current.
		iv, err := res.SourceCurrent("V1")
		if err != nil {
			t.Fatal(err)
		}
		n := len(iv)
		return math.Abs(iv[n-1]-iv[n/2]) / (res.Time[n-1] - res.Time[n/2])
	}
	s0 := slope(0)   // di/dt = V/L1
	s9 := slope(0.9) // di/dt = V/(L1(1−0.81))
	want0 := 1.0 / 100e-9
	if e := math.Abs(s0-want0) / want0; e > 0.03 {
		t.Fatalf("uncoupled slope %g want %g", s0, want0)
	}
	want9 := 1.0 / (100e-9 * (1 - 0.81))
	if e := math.Abs(s9-want9) / want9; e > 0.08 {
		t.Fatalf("coupled slope %g want %g", s9, want9)
	}
}

func TestTranSwitchToggle(t *testing.T) {
	c := New()
	in := c.Node("in")
	out := c.Node("out")
	if _, err := c.AddVSource("V1", in, Ground, DC(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddSwitch("S1", in, out, 1, 1e9, func(tt float64) bool { return tt >= 5e-9 }); err != nil {
		t.Fatal(err)
	}
	mustR(t, c, "R1", out, Ground, 1e3)
	res, err := c.Tran(TranOptions{Dt: 1e-9, Tstop: 10e-9})
	if err != nil {
		t.Fatal(err)
	}
	v := res.V(out)
	if v[2] > 1e-3 {
		t.Fatalf("switch should be off early: %g", v[2])
	}
	if last := v[len(v)-1]; math.Abs(last-1e3/1001.0) > 1e-3 {
		t.Fatalf("switch on value = %g", last)
	}
}

// Property: for a random RC/RL ladder driven by a DC source, the transient
// solution converges to the operating point (steady-state consistency of the
// companion models).
func TestTranConvergesToOPProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		in := c.Node("in")
		if _, err := c.AddVSource("V1", in, Ground, DC(1+rng.Float64()*4)); err != nil {
			return false
		}
		prev := in
		stages := 2 + rng.Intn(4)
		for s := 0; s < stages; s++ {
			n := c.Node(fmt.Sprintf("n%d", s))
			r := 10 + rng.Float64()*990
			if _, err := c.AddResistor(fmt.Sprintf("R%d", s), prev, n, r); err != nil {
				return false
			}
			// Random shunt: C, or L in series with R to ground.
			if rng.Intn(2) == 0 {
				if _, err := c.AddCapacitor(fmt.Sprintf("C%d", s), n, Ground, (0.1+rng.Float64())*1e-9); err != nil {
					return false
				}
			} else {
				m := c.Node(fmt.Sprintf("m%d", s))
				if _, err := c.AddInductor(fmt.Sprintf("L%d", s), n, m, (0.5+rng.Float64())*1e-9); err != nil {
					return false
				}
				if _, err := c.AddResistor(fmt.Sprintf("RL%d", s), m, Ground, 100+rng.Float64()*900); err != nil {
					return false
				}
			}
			prev = n
		}
		op, err := c.OP()
		if err != nil {
			return false
		}
		res, err := c.Tran(TranOptions{Dt: 0.2e-9, Tstop: 400e-9, Method: Trapezoidal})
		if err != nil {
			return false
		}
		for node := 1; node < c.NumNodes(); node++ {
			v := res.V(node)
			if math.Abs(v[len(v)-1]-NodeVoltage(op, node)) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestVCVSAmplifier(t *testing.T) {
	// An ideal ×10 amplifier: out = 10·in regardless of load.
	c := New()
	in := c.Node("in")
	out := c.Node("out")
	if _, err := c.AddVSource("V1", in, Ground, DC(0.5)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddVCVS("E1", out, Ground, in, Ground, 10); err != nil {
		t.Fatal(err)
	}
	mustR(t, c, "RL", out, Ground, 75)
	x, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	if v := NodeVoltage(x, out); math.Abs(v-5) > 1e-9 {
		t.Fatalf("VCVS output = %g want 5", v)
	}
	// AC path too.
	c2 := New()
	in2 := c2.Node("in")
	out2 := c2.Node("out")
	if _, err := c2.AddVSource("V1", in2, Ground, ACSource{Mag: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.AddVCVS("E1", out2, Ground, in2, Ground, -3); err != nil {
		t.Fatal(err)
	}
	mustR(t, c2, "RL", out2, Ground, 50)
	r, err := c2.AC(2 * math.Pi * 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if v := r.V(out2); math.Abs(real(v)+3) > 1e-9 || math.Abs(imag(v)) > 1e-12 {
		t.Fatalf("AC VCVS output = %v", v)
	}
}

func TestVCCSTransconductor(t *testing.T) {
	// gm = 10 mS driving 1 kΩ from a 2 V control: V(out) = −gm·R·Vc if the
	// current is pulled out of the load node... with current flowing from
	// ground into out, V(out) = gm·Vc·R.
	c := New()
	ctrl := c.Node("ctrl")
	out := c.Node("out")
	if _, err := c.AddVSource("V1", ctrl, Ground, DC(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddVCCS("G1", Ground, out, ctrl, Ground, 10e-3); err != nil {
		t.Fatal(err)
	}
	mustR(t, c, "RL", out, Ground, 1e3)
	x, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	if v := NodeVoltage(x, out); math.Abs(v-20) > 1e-6 {
		t.Fatalf("VCCS output = %g want 20", v)
	}
	// Transient consistency: same circuit must hold the value.
	res, err := c.Tran(TranOptions{Dt: 1e-9, Tstop: 5e-9})
	if err != nil {
		t.Fatal(err)
	}
	vo := res.V(out)
	if math.Abs(vo[len(vo)-1]-20) > 1e-6 {
		t.Fatalf("transient VCCS output = %g", vo[len(vo)-1])
	}
}

func TestGyratorWithVCCS(t *testing.T) {
	// Two back-to-back VCCS form a gyrator: a capacitor on port 2 looks
	// inductive at port 1: L = C/gm². Verify via the AC impedance phase.
	c := New()
	p1 := c.Node("p1")
	p2 := c.Node("p2")
	gm := 1e-3
	if _, err := c.AddVCCS("G1", Ground, p2, p1, Ground, gm); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddVCCS("G2", p1, Ground, p2, Ground, gm); err != nil {
		t.Fatal(err)
	}
	mustC(t, c, "C1", p2, Ground, 1e-9)
	if _, err := c.AddISource("I1", Ground, p1, ACSource{Mag: 1}); err != nil {
		t.Fatal(err)
	}
	// L_eq = C/gm² = 1e-9/1e-6 = 1 mH → at 1 kHz |Z| = ωL ≈ 6.28 Ω.
	r, err := c.AC(2 * math.Pi * 1e3)
	if err != nil {
		t.Fatal(err)
	}
	z := r.V(p1)
	if math.Abs(imag(z)-2*math.Pi*1e3*1e-3) > 0.01 {
		t.Fatalf("gyrator impedance = %v, want ≈ j6.28", z)
	}
}

func TestResultAccessors(t *testing.T) {
	c := New()
	n := c.Node("n")
	if _, err := c.AddVSource("V1", n, Ground, DC(1)); err != nil {
		t.Fatal(err)
	}
	mustR(t, c, "R1", n, Ground, 1)
	res, err := c.Tran(TranOptions{Dt: 1e-9, Tstop: 5e-9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.VByName("missing"); err == nil {
		t.Fatal("unknown node must error")
	}
	if _, err := res.SourceCurrent("missing"); err == nil {
		t.Fatal("unknown source must error")
	}
	iv, err := res.SourceCurrent("V1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(math.Abs(iv[len(iv)-1])-1) > 1e-6 {
		t.Fatalf("source current magnitude = %g", iv[len(iv)-1])
	}
	g := res.V(Ground)
	for _, v := range g {
		if v != 0 {
			t.Fatal("ground waveform must be zero")
		}
	}
}
