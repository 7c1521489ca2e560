package circuit

import (
	"math"
	"math/cmplx"
	"testing"
)

// buildTLineCircuit drives a Z0/Td line from a pulse source with source
// resistance rs into a load rl.
func buildTLineCircuit(t testing.TB, z0, td, rs, rl float64, w Waveform) (*Circuit, int, int) {
	t.Helper()
	c := New()
	src := c.Node("src")
	in := c.Node("in")
	out := c.Node("out")
	if _, err := c.AddVSource("V1", src, Ground, w); err != nil {
		t.Fatal(err)
	}
	mustR(t, c, "Rs", src, in, rs)
	if _, err := c.AddTLine("T1", in, Ground, out, Ground, z0, td); err != nil {
		t.Fatal(err)
	}
	mustR(t, c, "Rl", out, Ground, rl)
	return c, in, out
}

func TestTLineMatchedDelay(t *testing.T) {
	// 2 V step through 50 Ω into a matched 50 Ω line: 1 V at the near end
	// immediately, 1 V at the far end after exactly Td, no reflections.
	td := 1e-9
	step := Pulse{V1: 0, V2: 2, Rise: 1e-12, Width: 1}
	c, in, out := buildTLineCircuit(t, 50, td, 50, 50, step)
	res, err := c.Tran(TranOptions{Dt: 0.05e-9, Tstop: 5e-9})
	if err != nil {
		t.Fatal(err)
	}
	vin, vout := res.V(in), res.V(out)
	atTime := func(v []float64, tt float64) float64 {
		for i, ti := range res.Time {
			if ti >= tt {
				return v[i]
			}
		}
		return v[len(v)-1]
	}
	if v := atTime(vin, 0.3e-9); math.Abs(v-1) > 0.02 {
		t.Fatalf("near end before delay = %g, want 1", v)
	}
	if v := atTime(vout, 0.8e-9); math.Abs(v) > 0.02 {
		t.Fatalf("far end before delay = %g, want 0", v)
	}
	if v := atTime(vout, 1.3e-9); math.Abs(v-1) > 0.02 {
		t.Fatalf("far end after delay = %g, want 1", v)
	}
	// Matched: no later reflections disturb the near end.
	if v := atTime(vin, 4.5e-9); math.Abs(v-1) > 0.02 {
		t.Fatalf("near end settled = %g, want 1", v)
	}
}

func TestTLineOpenReflection(t *testing.T) {
	// Open far end: voltage doubles at the far end at Td, the reflection
	// returns to the (matched) source at 2·Td raising the near end to 2 V.
	td := 1e-9
	step := Pulse{V1: 0, V2: 2, Rise: 1e-12, Width: 1}
	c, in, out := buildTLineCircuit(t, 50, td, 50, 1e9, step)
	res, err := c.Tran(TranOptions{Dt: 0.05e-9, Tstop: 6e-9})
	if err != nil {
		t.Fatal(err)
	}
	vin, vout := res.V(in), res.V(out)
	atTime := func(v []float64, tt float64) float64 {
		for i, ti := range res.Time {
			if ti >= tt {
				return v[i]
			}
		}
		return v[len(v)-1]
	}
	if v := atTime(vout, 1.5e-9); math.Abs(v-2) > 0.05 {
		t.Fatalf("open far end after delay = %g, want 2", v)
	}
	if v := atTime(vin, 1.5e-9); math.Abs(v-1) > 0.05 {
		t.Fatalf("near end before reflection = %g, want 1", v)
	}
	if v := atTime(vin, 2.5e-9); math.Abs(v-2) > 0.05 {
		t.Fatalf("near end after reflection = %g, want 2", v)
	}
}

func TestTLineShortReflection(t *testing.T) {
	td := 1e-9
	step := Pulse{V1: 0, V2: 2, Rise: 1e-12, Width: 1}
	c, in, _ := buildTLineCircuit(t, 50, td, 50, 1e-3, step)
	res, err := c.Tran(TranOptions{Dt: 0.05e-9, Tstop: 6e-9})
	if err != nil {
		t.Fatal(err)
	}
	vin := res.V(in)
	// After the inverted reflection returns, the near end collapses to ~0.
	last := vin[len(vin)-1]
	if math.Abs(last) > 0.05 {
		t.Fatalf("shorted line steady state = %g, want 0", last)
	}
}

func TestTLineDCThroughOP(t *testing.T) {
	// At DC the lossless line is transparent: the load sees the divider of
	// Rs and Rl regardless of Z0.
	c, in, out := buildTLineCircuit(t, 73, 2e-9, 100, 300, DC(4))
	x, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * 300.0 / 400.0
	if v := NodeVoltage(x, out); math.Abs(v-want) > 1e-3 {
		t.Fatalf("DC through line = %g want %g", v, want)
	}
	if v := NodeVoltage(x, in); math.Abs(v-want) > 1e-3 {
		t.Fatalf("line must be a DC short: near %g vs far %g", v, want)
	}
}

func TestTLineStepLimit(t *testing.T) {
	c, _, _ := buildTLineCircuit(t, 50, 1e-9, 50, 50, DC(1))
	if _, err := c.Tran(TranOptions{Dt: 2e-9, Tstop: 10e-9}); err == nil {
		t.Fatal("dt > line delay must error")
	}
}

func TestMTLModalValidation(t *testing.T) {
	c := New()
	n1, n2 := c.Node("a"), c.Node("b")
	_, err := c.AddMTLModal("bad", []int{n1}, Ground, []int{n2, n2}, Ground,
		identity(1), identity(1), identity(1), []float64{50}, []float64{1e-9})
	if err == nil {
		t.Fatal("inconsistent dimensions must error")
	}
	_, err = c.AddMTLModal("bad2", []int{n1}, Ground, []int{n2}, Ground,
		identity(1), identity(1), identity(1), []float64{-50}, []float64{1e-9})
	if err == nil {
		t.Fatal("negative modal impedance must error")
	}
}

// Two identical uncoupled modes through the modal interface must behave as
// two independent lines.
func TestMTLTwoIndependentModes(t *testing.T) {
	c := New()
	a1, a2 := c.Node("a1"), c.Node("a2")
	b1, b2 := c.Node("b1"), c.Node("b2")
	src := c.Node("src")
	if _, err := c.AddVSource("V1", src, Ground, Pulse{V1: 0, V2: 2, Rise: 1e-12, Width: 1}); err != nil {
		t.Fatal(err)
	}
	mustR(t, c, "Rs1", src, a1, 50)
	mustR(t, c, "Rs2", src, a2, 50)
	mustR(t, c, "Rl1", b1, Ground, 50)
	mustR(t, c, "Rl2", b2, Ground, 50)
	_, err := c.AddMTLModal("T1", []int{a1, a2}, Ground, []int{b1, b2}, Ground,
		identity(2), identity(2), identity(2),
		[]float64{50, 50}, []float64{1e-9, 2e-9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Tran(TranOptions{Dt: 0.1e-9, Tstop: 5e-9})
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := res.V(b1), res.V(b2)
	atTime := func(v []float64, tt float64) float64 {
		for i, ti := range res.Time {
			if ti >= tt {
				return v[i]
			}
		}
		return v[len(v)-1]
	}
	if v := atTime(v1, 1.3e-9); math.Abs(v-1) > 0.03 {
		t.Fatalf("mode 1 after 1 ns = %g", v)
	}
	if v := atTime(v2, 1.3e-9); math.Abs(v) > 0.03 {
		t.Fatalf("mode 2 must still be quiet at 1.3 ns: %g", v)
	}
	if v := atTime(v2, 2.3e-9); math.Abs(v-1) > 0.03 {
		t.Fatalf("mode 2 after 2 ns = %g", v)
	}
}

func TestACValidation(t *testing.T) {
	c := New()
	mustR(t, c, "R1", c.Node("n"), Ground, 1)
	if _, err := c.AC(0); err == nil {
		t.Fatal("zero frequency must error")
	}
}

func TestACRCLowPass(t *testing.T) {
	c := New()
	in := c.Node("in")
	out := c.Node("out")
	if _, err := c.AddVSource("V1", in, Ground, ACSource{Mag: 1}); err != nil {
		t.Fatal(err)
	}
	mustR(t, c, "R1", in, out, 1e3)
	mustC(t, c, "C1", out, Ground, 1e-9)
	fc := 1 / (2 * math.Pi * 1e3 * 1e-9)
	res, err := c.AC(2 * math.Pi * fc)
	if err != nil {
		t.Fatal(err)
	}
	h := res.V(out)
	if math.Abs(cmplx.Abs(h)-1/math.Sqrt2) > 1e-6 {
		t.Fatalf("|H(fc)| = %g want %g", cmplx.Abs(h), 1/math.Sqrt2)
	}
	if ph := cmplx.Phase(h); math.Abs(ph+math.Pi/4) > 1e-6 {
		t.Fatalf("phase(fc) = %g want −π/4", ph)
	}
	// Deep in the stopband the rolloff is −20 dB/decade.
	res2, err := c.AC(2 * math.Pi * fc * 100)
	if err != nil {
		t.Fatal(err)
	}
	if db := 20 * math.Log10(cmplx.Abs(res2.V(out))); math.Abs(db+40) > 0.1 {
		t.Fatalf("stopband = %g dB want −40", db)
	}
}

func TestACSeriesResonance(t *testing.T) {
	// Series RLC: at resonance the output across R equals the input.
	c := New()
	in := c.Node("in")
	n1 := c.Node("n1")
	out := c.Node("out")
	if _, err := c.AddVSource("V1", in, Ground, ACSource{Mag: 1}); err != nil {
		t.Fatal(err)
	}
	mustL(t, c, "L1", in, n1, 10e-9)
	mustC(t, c, "C1", n1, out, 1e-9)
	mustR(t, c, "R1", out, Ground, 5)
	w0 := 1 / math.Sqrt(10e-9*1e-9)
	res, err := c.AC(w0)
	if err != nil {
		t.Fatal(err)
	}
	if m := cmplx.Abs(res.V(out)); math.Abs(m-1) > 1e-6 {
		t.Fatalf("|H(w0)| = %g want 1", m)
	}
	// Off resonance the magnitude drops.
	res2, err := c.AC(3 * w0)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic: X = ω0L·(3 − 1/3) = 8.43 Ω → |H| = 5/√(25+71.1) ≈ 0.51.
	if m := cmplx.Abs(res2.V(out)); math.Abs(m-0.51) > 0.01 {
		t.Fatalf("off-resonance |H| = %g want ≈0.51", m)
	}
}

func TestACTLineMatched(t *testing.T) {
	// A matched line in AC: |V(out)/V(in)| = 1 with phase −ωτ.
	c, in, out := buildTLineCircuit(t, 50, 1e-9, 50, 50, ACSource{Mag: 2})
	for _, f := range []float64{0.1e9, 0.35e9, 0.77e9} {
		w := 2 * math.Pi * f
		res, err := c.AC(w)
		if err != nil {
			t.Fatal(err)
		}
		h := res.V(out) / res.V(in)
		if math.Abs(cmplx.Abs(h)-1) > 1e-6 {
			t.Fatalf("matched AC |H| at %g = %g", f, cmplx.Abs(h))
		}
		wantPh := math.Mod(-w*1e-9, 2*math.Pi)
		if wantPh < -math.Pi {
			wantPh += 2 * math.Pi
		}
		if d := math.Abs(cmplx.Phase(h) - wantPh); d > 1e-6 && math.Abs(d-2*math.Pi) > 1e-6 {
			t.Fatalf("matched AC phase at %g = %g want %g", f, cmplx.Phase(h), wantPh)
		}
	}
}

func TestACQuarterWaveTransformer(t *testing.T) {
	// A λ/4 line of Z0 = 100 Ω transforms a 200 Ω load into 50 Ω: with a
	// 50 Ω source there is no reflection, so the input node sits at half the
	// source voltage.
	td := 1e-9
	f := 1 / (4 * td) // λ/4 at 250 MHz
	c, in, _ := buildTLineCircuit(t, 100, td, 50, 200, ACSource{Mag: 2})
	res, err := c.AC(2 * math.Pi * f)
	if err != nil {
		t.Fatal(err)
	}
	if m := cmplx.Abs(res.V(in)); math.Abs(m-1) > 1e-3 {
		t.Fatalf("quarter-wave matched input = %g want 1", m)
	}
}
