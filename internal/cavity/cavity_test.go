package cavity

import (
	"math"
	"math/cmplx"
	"testing"

	"pdnsim/internal/greens"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, 1, 1e-3, 4); err == nil {
		t.Fatal("negative dimension must error")
	}
	if _, err := New(1, 1, 1e-3, 0.5); err == nil {
		t.Fatal("epsR < 1 must error")
	}
}

func TestPortValidation(t *testing.T) {
	m, err := New(10e-3, 10e-3, 0.3e-3, 4.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddPort("P", 20e-3, 5e-3); err == nil {
		t.Fatal("out-of-plane port must error")
	}
	if _, err := m.Z(1e9); err == nil {
		t.Fatal("Z without ports must error")
	}
	if err := m.AddPort("P", 5e-3, 5e-3); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Z(-1); err == nil {
		t.Fatal("negative omega must error")
	}
	if len(m.ports) != 1 {
		t.Fatal("port count")
	}
}

func TestDCLimitIsPlateCapacitance(t *testing.T) {
	a, b, d, epsR := 20e-3, 15e-3, 0.4e-3, 4.2
	m, err := New(a, b, d, epsR)
	if err != nil {
		t.Fatal(err)
	}
	m.LossTan = 0
	if err := m.AddPort("P", 7e-3, 5e-3); err != nil {
		t.Fatal(err)
	}
	f := 1e5 // far below the first resonance
	z, err := m.Z(2 * math.Pi * f)
	if err != nil {
		t.Fatal(err)
	}
	c := greens.Eps0 * epsR * a * b / d
	want := 1 / (2 * math.Pi * f * c)
	if e := math.Abs(cmplx.Abs(z.At(0, 0))-want) / want; e > 1e-3 {
		t.Fatalf("DC limit |Z| = %g want %g", cmplx.Abs(z.At(0, 0)), want)
	}
	if imag(z.At(0, 0)) >= 0 {
		t.Fatal("low-frequency plane must be capacitive")
	}
}

func TestResonantFrequency(t *testing.T) {
	m, _ := New(8e-3, 8e-3, 0.28e-3, 9.6)
	f10 := m.ResonantFrequency(1, 0)
	want := greens.C0 / math.Sqrt(9.6) / (2 * 8e-3) // ≈ 6.05 GHz
	if math.Abs(f10-want)/want > 1e-12 {
		t.Fatalf("f10 = %g want %g", f10, want)
	}
	f11 := m.ResonantFrequency(1, 1)
	if math.Abs(f11-want*math.Sqrt2)/f11 > 1e-12 {
		t.Fatalf("f11 = %g", f11)
	}
}

func TestImpedancePeaksAtCavityMode(t *testing.T) {
	m, err := New(20e-3, 20e-3, 0.5e-3, 4.5)
	if err != nil {
		t.Fatal(err)
	}
	m.LossTan = 2e-3
	if err := m.AddPort("P", 0.5e-3, 0.5e-3); err != nil {
		t.Fatal(err)
	}
	f10 := m.ResonantFrequency(1, 0)
	onPeak, err := m.Z(2 * math.Pi * f10)
	if err != nil {
		t.Fatal(err)
	}
	off, err := m.Z(2 * math.Pi * f10 * 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(onPeak.At(0, 0)) < 5*cmplx.Abs(off.At(0, 0)) {
		t.Fatalf("no resonance peak: on=%g off=%g",
			cmplx.Abs(onPeak.At(0, 0)), cmplx.Abs(off.At(0, 0)))
	}
}

func TestReciprocityAndSymmetry(t *testing.T) {
	m, err := New(16e-3, 12e-3, 0.3e-3, 4.5)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range [][2]float64{{2e-3, 2e-3}, {14e-3, 3e-3}, {8e-3, 10e-3}} {
		if err := m.AddPort(string(rune('A'+i)), p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	z, err := m.Z(2 * math.Pi * 3e9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if cmplx.Abs(z.At(i, j)-z.At(j, i)) > 1e-12*cmplx.Abs(z.At(i, i)) {
				t.Fatalf("Z not reciprocal at (%d,%d)", i, j)
			}
		}
	}
}

func TestModeConvergence(t *testing.T) {
	m, err := New(20e-3, 20e-3, 0.5e-3, 4.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddPort("P", 3e-3, 4e-3); err != nil {
		t.Fatal(err)
	}
	omega := 2 * math.Pi * 2.2e9
	m.Modes = 120
	ref, err := m.Z(omega)
	if err != nil {
		t.Fatal(err)
	}
	prevErr := math.Inf(1)
	for _, md := range []int{10, 20, 40, 80} {
		m.Modes = md
		z, err := m.Z(omega)
		if err != nil {
			t.Fatal(err)
		}
		e := cmplx.Abs(z.At(0, 0)-ref.At(0, 0)) / cmplx.Abs(ref.At(0, 0))
		if e > prevErr+1e-12 {
			t.Fatalf("mode series not converging: %d → %g (prev %g)", md, e, prevErr)
		}
		prevErr = e
	}
	if prevErr > 0.02 {
		t.Fatalf("series unconverged at 80 modes: %g", prevErr)
	}
}

// The analytic cavity and the BEM-extracted network describe the same
// structure; their input impedances must agree at low frequency. (The full
// frequency comparison is Experiment FIG7.)
func TestMatchesPlateCapacitanceOfBEM(t *testing.T) {
	m, err := New(20e-3, 20e-3, 0.5e-3, 4.5)
	if err != nil {
		t.Fatal(err)
	}
	m.LossTan = 0
	if err := m.AddPort("P", 10e-3, 10e-3); err != nil {
		t.Fatal(err)
	}
	z, err := m.Z(2 * math.Pi * 1e6)
	if err != nil {
		t.Fatal(err)
	}
	cCavity := 1 / (2 * math.Pi * 1e6 * cmplx.Abs(z.At(0, 0)))
	cPlate := greens.Eps0 * 4.5 * 400e-6 / 0.5e-3
	if e := math.Abs(cCavity-cPlate) / cPlate; e > 1e-3 {
		t.Fatalf("cavity C = %g vs plate %g", cCavity, cPlate)
	}
}

// ResonantFrequency returns the analytic cavity mode frequency f_mn.
func (m *Model) ResonantFrequency(mi, ni int) float64 {
	v := greens.C0 / math.Sqrt(m.EpsR)
	return v / 2 * math.Hypot(float64(mi)/m.A, float64(ni)/m.B)
}
