package tline

import (
	"math"
	"testing"

	"pdnsim/internal/circuit"
	"pdnsim/internal/greens"
	"pdnsim/internal/simerr"
)

func TestSolveValidation(t *testing.T) {
	if _, err := Solve(Geometry{}); err == nil {
		t.Fatal("no strips must error")
	}
	if _, err := Solve(Geometry{Strips: []Strip{{0, 1e-3}}, H: -1, EpsR: 4}); err == nil {
		t.Fatal("bad substrate must error")
	}
	if _, err := Solve(Geometry{Strips: []Strip{{0, 0}}, H: 1e-3, EpsR: 4}); err == nil {
		t.Fatal("zero width must error")
	}
	if _, err := Solve(Geometry{Strips: []Strip{{0, 2e-3}, {1e-3, 2e-3}}, H: 1e-3, EpsR: 4}); err == nil {
		t.Fatal("overlapping strips must error")
	}
}

// The MoM solver must agree with Hammerstad's closed forms for single
// microstrips over a range of w/h and εr.
func TestMicrostripAgainstHammerstad(t *testing.T) {
	cases := []struct {
		w, h, epsR float64
	}{
		{2e-3, 1e-3, 4.5},
		{1e-3, 1e-3, 4.5},
		{3e-3, 1e-3, 4.5},
		{1e-3, 0.5e-3, 9.6},
		{0.6e-3, 1e-3, 2.2},
	}
	for _, c := range cases {
		p, err := Solve(Geometry{
			Strips: []Strip{{0, c.w}}, H: c.h, EpsR: c.epsR,
			NImages: 60, SegsPerStrip: 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		z0, err := p.Z0()
		if err != nil {
			t.Fatal(err)
		}
		zRef, eRef := MicrostripZ0Hammerstad(c.w, c.h, c.epsR)
		if e := math.Abs(z0-zRef) / zRef; e > 0.06 {
			t.Fatalf("w/h=%g εr=%g: Z0 = %.2f vs Hammerstad %.2f (err %.3f)",
				c.w/c.h, c.epsR, z0, zRef, e)
		}
		if e := math.Abs(p.EpsEff(0)-eRef) / eRef; e > 0.06 {
			t.Fatalf("w/h=%g εr=%g: εeff = %.3f vs Hammerstad %.3f",
				c.w/c.h, c.epsR, p.EpsEff(0), eRef)
		}
	}
}

func TestAirLineVelocityIsC0(t *testing.T) {
	// With εr = 1 every mode must travel at the speed of light.
	p, err := Solve(Geometry{Strips: []Strip{{0, 1e-3}}, H: 1e-3, EpsR: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Modal()
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(m.Vel[0]-greens.C0) / greens.C0; e > 1e-6 {
		t.Fatalf("air velocity = %g (err %g)", m.Vel[0], e)
	}
}

func TestMatrixSignsAndSymmetry(t *testing.T) {
	p, err := Solve(Geometry{
		Strips: []Strip{{-1.5e-3, 1e-3}, {0, 1e-3}, {1.5e-3, 1e-3}},
		H:      0.5e-3, EpsR: 4.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name string
		v    interface{ At(int, int) float64 }
	}{{"L", p.L}, {"C", p.C}} {
		for i := 0; i < 3; i++ {
			if m.v.At(i, i) <= 0 {
				t.Fatalf("%s diagonal %d must be positive", m.name, i)
			}
		}
	}
	// Capacitance off-diagonals negative, inductance off-diagonals positive.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i == j {
				continue
			}
			if p.C.At(i, j) >= 0 {
				t.Fatalf("C[%d][%d] = %g must be negative", i, j, p.C.At(i, j))
			}
			if p.L.At(i, j) <= 0 {
				t.Fatalf("L[%d][%d] = %g must be positive", i, j, p.L.At(i, j))
			}
		}
	}
	if !p.L.IsSymmetric(1e-9) || !p.C.IsSymmetric(1e-9) {
		t.Fatal("L and C must be symmetric")
	}
	// Coupling decays with distance: |C12| > |C13|.
	if math.Abs(p.C.At(0, 1)) <= math.Abs(p.C.At(0, 2)) {
		t.Fatal("nearer neighbours must couple more strongly")
	}
	// Symmetric geometry: outer conductors identical.
	if e := math.Abs(p.C.At(0, 0)-p.C.At(2, 2)) / p.C.At(0, 0); e > 1e-6 {
		t.Fatalf("outer conductor symmetry broken: %g", e)
	}
}

func TestModalVelocitiesBounded(t *testing.T) {
	// Quasi-TEM modal velocities must lie between c0/√εr and c0.
	p, err := Solve(Geometry{
		Strips: []Strip{{-1e-3, 1e-3}, {1e-3, 1e-3}},
		H:      0.7e-3, EpsR: 4.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Modal()
	if err != nil {
		t.Fatal(err)
	}
	lo := greens.C0 / math.Sqrt(4.5)
	for k, v := range m.Vel {
		if v < lo*0.999 || v > greens.C0*1.001 {
			t.Fatalf("mode %d velocity %g outside [%g, %g]", k, v, lo, greens.C0)
		}
	}
}

func TestEvenOddImpedances(t *testing.T) {
	p, err := Solve(Geometry{
		Strips: []Strip{{-0.75e-3, 1e-3}, {0.75e-3, 1e-3}},
		H:      0.6e-3, EpsR: 4.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ze, zo, err := p.EvenOddImpedances()
	if err != nil {
		t.Fatal(err)
	}
	if ze <= zo {
		t.Fatalf("even-mode impedance %g must exceed odd-mode %g", ze, zo)
	}
	// The isolated-line impedance lies between them.
	single, err := Solve(Geometry{Strips: []Strip{{0, 1e-3}}, H: 0.6e-3, EpsR: 4.5})
	if err != nil {
		t.Fatal(err)
	}
	z0, _ := single.Z0()
	if z0 <= zo || z0 >= ze {
		t.Fatalf("Z0 %g should be between odd %g and even %g", z0, zo, ze)
	}
	if _, err := p.Z0(); err == nil {
		t.Fatal("Z0 on a 2-conductor system must error")
	}
	if _, _, err := single.EvenOddImpedances(); err == nil {
		t.Fatal("even/odd on single line must error")
	}
}

// The modal transform matrices must satisfy the defining congruences:
// TVInv·TV = I, TIᵀ·TV = I (power orthogonality with this normalisation).
func TestModalTransformConsistency(t *testing.T) {
	p, err := Solve(Geometry{
		Strips: []Strip{{-1.2e-3, 0.8e-3}, {0, 0.8e-3}, {1.2e-3, 0.8e-3}},
		H:      0.5e-3, EpsR: 3.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Modal()
	if err != nil {
		t.Fatal(err)
	}
	n := m.N
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var tvinvTv, tiTv float64
			for k := 0; k < n; k++ {
				tvinvTv += m.TVInv[i][k] * m.TV[k][j]
				tiTv += m.TI[k][i] * m.TV[k][j]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(tvinvTv-want) > 1e-9 {
				t.Fatalf("TVInv·TV[%d][%d] = %g", i, j, tvinvTv)
			}
			if math.Abs(tiTv-want) > 1e-9 {
				t.Fatalf("TIᵀ·TV[%d][%d] = %g", i, j, tiTv)
			}
		}
	}
}

// End-to-end: a matched single microstrip attached to a circuit delays a
// step by length/velocity.
func TestAttachSingleLineTransient(t *testing.T) {
	p, err := Solve(Geometry{Strips: []Strip{{0, 2e-3}}, H: 1e-3, EpsR: 4.5})
	if err != nil {
		t.Fatal(err)
	}
	z0, _ := p.Z0()
	m, _ := p.Modal()
	length := 0.1 // 10 cm
	tdExpect := length / m.Vel[0]

	c := circuit.New()
	src := c.Node("src")
	in := c.Node("in")
	out := c.Node("out")
	if _, err := c.AddVSource("V1", src, circuit.Ground,
		circuit.Pulse{V1: 0, V2: 2, Rise: 10e-12, Width: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddResistor("Rs", src, in, z0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddResistor("Rl", out, circuit.Ground, z0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Attach(c, "T1", []int{in}, circuit.Ground, []int{out}, circuit.Ground, length); err != nil {
		t.Fatal(err)
	}
	res, err := c.Tran(circuit.TranOptions{Dt: 5e-12, Tstop: 2 * tdExpect})
	if err != nil {
		t.Fatal(err)
	}
	vout := res.V(out)
	// Find the 50% crossing time of the far end.
	var tCross float64
	for i := 1; i < len(vout); i++ {
		if vout[i-1] < 0.5 && vout[i] >= 0.5 {
			f := (0.5 - vout[i-1]) / (vout[i] - vout[i-1])
			tCross = res.Time[i-1] + f*(res.Time[i]-res.Time[i-1])
			break
		}
	}
	if tCross == 0 {
		t.Fatal("far end never crossed 0.5 V")
	}
	if e := math.Abs(tCross-tdExpect) / tdExpect; e > 0.05 {
		t.Fatalf("delay = %g want %g (err %.3f)", tCross, tdExpect, e)
	}
	// Matched: settles to 1 V.
	if v := vout[len(vout)-1]; math.Abs(v-1) > 0.03 {
		t.Fatalf("matched settling = %g", v)
	}
}

func TestAttachValidation(t *testing.T) {
	p, err := Solve(Geometry{Strips: []Strip{{0, 1e-3}}, H: 1e-3, EpsR: 4.5})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New()
	n := c.Node("n")
	if _, err := p.Attach(c, "T", []int{n}, circuit.Ground, []int{n}, circuit.Ground, -1); err == nil {
		t.Fatal("negative length must error")
	}
	if _, err := p.Attach(c, "T", []int{n, n}, circuit.Ground, []int{n}, circuit.Ground, 0.1); err == nil {
		t.Fatal("terminal count mismatch must error")
	}
}

func TestHammerstadSanity(t *testing.T) {
	// 50 Ω on FR4 is roughly w/h ≈ 1.9 at εr 4.5.
	z0, epsEff := MicrostripZ0Hammerstad(1.9e-3, 1e-3, 4.5)
	if z0 < 45 || z0 > 55 {
		t.Fatalf("Hammerstad Z0 = %g", z0)
	}
	if epsEff < 3 || epsEff > 4 {
		t.Fatalf("Hammerstad εeff = %g", epsEff)
	}
}

// The single-line impedance and the Hammerstad closed form are the
// references the MoM solution is checked against; the product hands L and
// C to the MTL model instead.

// Z0 returns the single-line characteristic impedance √(L/C); only valid for
// one-conductor cross-sections.
func (p *Params) Z0() (float64, error) {
	if p.N != 1 {
		return 0, simerr.Tagf(simerr.ErrBadInput, "tline: Z0 is defined for one conductor, have %d", p.N)
	}
	return math.Sqrt(p.L.At(0, 0) / p.C.At(0, 0)), nil
}

// MicrostripZ0Hammerstad returns the Hammerstad closed-form characteristic
// impedance and effective permittivity of a single microstrip — the
// published reference the MoM solver is validated against.
func MicrostripZ0Hammerstad(w, h, epsR float64) (z0, epsEff float64) {
	u := w / h
	epsEff = (epsR+1)/2 + (epsR-1)/2/math.Sqrt(1+12/u)
	if u < 1 {
		epsEff += (epsR - 1) / 2 * 0.04 * (1 - u) * (1 - u)
	}
	const eta0 = 376.730313668
	if u <= 1 {
		z0 = eta0 / (2 * math.Pi * math.Sqrt(epsEff)) * math.Log(8/u+u/4)
	} else {
		z0 = eta0 / (math.Sqrt(epsEff) * (u + 1.393 + 0.667*math.Log(u+1.444)))
	}
	return z0, epsEff
}
