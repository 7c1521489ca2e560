package circuit

import (
	"math"
	"math/rand/v2"
	"testing"

	"pdnsim/internal/diag"
	"pdnsim/internal/mat"
)

// lowRankSolver sets up a solver whose Newton buffers hold the correction
// Δ (rows R = rows, stamped in that order) and right-hand side b, as
// solveNewtonStep leaves them before solveLowRank.
func lowRankSolver(t *testing.T, a0 *mat.Matrix, delta []float64, rows []int, b []float64) (*solver, *mnaFactor) {
	t.Helper()
	n := a0.Rows
	f, err := newMNAFactor(a0)
	if err != nil {
		t.Fatal(err)
	}
	s := &solver{dim: n, nv: n, delta: &mat.Matrix{Rows: n, Cols: n, Data: delta}, rhs: b}
	s.stp = Stamper{n: n, seen: make([]bool, n), rows: rows}
	for _, r := range rows {
		s.stp.seen[r] = true
	}
	return s, f
}

// TestLowRankSolveMatchesDense is the property behind the Newton low-rank
// path: on random well-conditioned A0 (n from 8 to 64) and random device
// stamps Δ in k ≤ n/2 rows — with non-zero columns outside R, as a MOSFET's
// gate column is — the Woodbury solution satisfies (A0 + Δ)·x = b to
// stepRefineThreshold, measured by the compensated residual of the
// assembled matrix, and the path's own acceptance residual agrees.
func TestLowRankSolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 200; trial++ {
		n := 8 + rng.IntN(57)
		k := rng.IntN(n/2 + 1)
		a0 := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a0.Set(i, j, rng.NormFloat64())
			}
			a0.Add(i, i, float64(2*n))
		}
		rows := rng.Perm(n)[:k]
		delta := make([]float64, n*n)
		full := a0.Clone()
		for _, r := range rows {
			// A few stamps per row, at random columns inside and outside R.
			for m := 0; m < 4; m++ {
				j := rng.IntN(n)
				v := 5 * rng.NormFloat64()
				delta[r*n+j] += v
				full.Add(r, j, v)
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		s, f := lowRankSolver(t, a0, delta, rows, b)
		x := s.solveLowRank(f)
		if x == nil {
			t.Fatalf("trial %d (n=%d k=%d): well-conditioned correction fell back: %+v", trial, n, k, s.stats)
		}
		lu, err := mat.NewLU(full)
		if err != nil {
			t.Fatal(err)
		}
		want, err := lu.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if _, relres := mat.ResidualVec(full, x, b); relres > stepRefineThreshold {
			t.Fatalf("trial %d (n=%d k=%d): relative residual %g > %g", trial, n, k, relres, stepRefineThreshold)
		}
		if relres := s.lowRankResidual(f, x); relres > stepRefineThreshold {
			t.Fatalf("trial %d (n=%d k=%d): acceptance residual %g > %g", trial, n, k, relres, stepRefineThreshold)
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d: x[%d] = %g, dense solve %g", trial, i, x[i], want[i])
			}
		}
		if s.stats.LowRankSolves != 1 || s.stats.MaxRank != k {
			t.Fatalf("trial %d: stats %+v, want one solve of rank %d", trial, s.stats, k)
		}
	}
}

// TestLowRankSingularCapacitanceFallsBack: a correction that zeroes a row
// of A0 + Δ makes S = I_k + Δ_R·W exactly singular (A0 = I, so W = E_R and
// the row of S cancels to zero); the solve must refuse and count it.
func TestLowRankSingularCapacitanceFallsBack(t *testing.T) {
	const n = 8
	a0 := mat.Eye(n)
	rows := []int{1, 3}
	delta := make([]float64, n*n)
	delta[1*n+1] = -1    // row 1 of A0 + Δ becomes zero
	delta[3*n+5] = 0.25  // an ordinary stamp outside R
	delta[3*n+3] = 0.125 // and one on its diagonal
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i + 1)
	}
	s, f := lowRankSolver(t, a0, delta, rows, b)
	if x := s.solveLowRank(f); x != nil {
		t.Fatalf("singular capacitance matrix must fall back, got x = %v", x)
	}
	if s.stats.FallbackSingular+s.stats.FallbackCond != 1 || s.stats.LowRankSolves != 0 {
		t.Fatalf("fallback not counted: %+v", s.stats)
	}
}

// noLoadCapInverter is a CMOS inverter behind a 2 nH package inductance and
// a 20 pF rail capacitor, with nothing but the transistors on its output:
// the device-free matrix holds that node on gshunt alone, so A0 is nearly
// singular (κ₁ ≈ 2e14) and the low-rank correction is ill-conditioned.
func noLoadCapInverter(t *testing.T) (c *Circuit, out, rail int) {
	t.Helper()
	c = New()
	vdd := c.Node("vdd")
	rail = c.Node("rail")
	in := c.Node("in")
	out = c.Node("out")
	if _, err := c.AddVSource("VDD", vdd, Ground, DC(3.3)); err != nil {
		t.Fatal(err)
	}
	mustL(t, c, "Lpkg", vdd, rail, 2e-9)
	mustC(t, c, "Crail", rail, Ground, 20e-12)
	if _, err := c.AddVSource("VIN", in, Ground,
		Pulse{V1: 0, V2: 3.3, Delay: 1e-9, Rise: 0.2e-9, Fall: 0.2e-9, Width: 3e-9}); err != nil {
		t.Fatal(err)
	}
	cmosInverter(t, c, in, out, rail, 4e-3, 4e-3)
	return c, out, rail
}

// TestNewtonNearSingularA0FallsBack: with no load capacitor the Newton path
// must refuse the low-rank correction, finish on the full factorisation,
// say so in the stats and diag trail, and reproduce the full-solve
// waveform. The reference samples are the full dense Newton solve's, taken
// before the low-rank path existed; the band is ten device convergence
// bands, the SSN benchmark's Newton band.
func TestNewtonNearSingularA0FallsBack(t *testing.T) {
	c, out, rail := noLoadCapInverter(t)
	res, err := c.Tran(TranOptions{Dt: 20e-12, Tstop: 7e-9, Method: Trapezoidal})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.FallbackSingular+st.FallbackCond+st.FallbackResidual == 0 {
		t.Fatalf("near-singular A0 must take the full-solve fallback: %+v", st)
	}
	if !hasCheck(res.Diag, "Newton low-rank fallback", diag.Warning) {
		t.Fatalf("fallbacks must surface as a diag warning:\n%s", res.Diag.Render(true))
	}
	vout, vrail := res.V(out), res.V(rail)
	for _, ref := range []struct {
		i           int
		vout, vrail float64
	}{
		{0, 3.29999999937, 3.3},
		{50, 3.29999999937, 3.3},
		{55, 1.44877040447, 3.298129912},
		{60, 3.16993113745e-10, 3.29672838371},
		{100, 3.17384412448e-10, 3.30079789022},
		{210, 3.17657484502e-10, 3.30363783958},
		{215, 1.83237452891, 3.30169800413},
		{220, 3.29935457977, 3.29935458041},
		{350, 3.29907652126, 3.2990765219},
	} {
		for _, p := range []struct {
			what      string
			got, want float64
		}{{"V(out)", vout[ref.i], ref.vout}, {"V(rail)", vrail[ref.i], ref.vrail}} {
			if band := 10 * (devAbsTol + devRelTol*math.Abs(p.want)); math.Abs(p.got-p.want) > band {
				t.Fatalf("%s at sample %d = %.12g, full-solve reference %.12g (band %g)", p.what, ref.i, p.got, p.want, band)
			}
		}
	}
}

// TestNonlinearTranCarriesPathDiagnostics: a healthy nonlinear transient
// records the κ₁ estimate of its device-free factorisation and the Newton
// solve-path entry, solves its transient iterations low-rank and records
// no fallback.
func TestNonlinearTranCarriesPathDiagnostics(t *testing.T) {
	c, out := cmosRailCircuit(t, Pulse{V1: 0, V2: 3.3, Delay: 1e-9, Rise: 0.2e-9, Fall: 0.2e-9, Width: 3e-9})
	res, err := c.Tran(TranOptions{Dt: 20e-12, Tstop: 7e-9, Method: Trapezoidal})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.CondEstimate <= 0 {
		t.Fatal("the device-free MNA factorisation of a nonlinear transient must carry a κ₁ estimate")
	}
	if !hasCheck(res.Diag, "MNA κ₁ estimate", diag.Info) || !hasCheck(res.Diag, "Newton solve path", diag.Info) {
		t.Fatalf("missing κ₁ or solve-path entry:\n%s", res.Diag.Render(true))
	}
	if hasCheck(res.Diag, "Newton low-rank fallback", diag.Warning) {
		t.Fatalf("healthy circuit recorded a fallback:\n%s", res.Diag.Render(true))
	}
	if st.FallbackSingular+st.FallbackCond+st.FallbackResidual != 0 || st.MaxRank != 2 {
		t.Fatalf("want rank-2 corrections and no fallback, got %+v", st)
	}
	// Every transient iteration is low-rank; only the DC operating point
	// solves in full.
	if st.LowRankSolves == 0 || st.LowRankSolves+st.FullSolves < st.NewtonIterations {
		t.Fatalf("solve-path counts do not cover the Newton iterations: %+v", st)
	}
	if st.WorstStepResidual > stepRefineThreshold {
		t.Fatalf("accepted residual %g past the gate", st.WorstStepResidual)
	}
	if v := res.V(out)[150]; math.Abs(v) > 0.05 { // t = 3 ns, input high
		t.Fatalf("inverter output %g while its input is high", v)
	}
}

// hasCheck reports whether d holds a record of the named check at the given
// severity.
func hasCheck(d *diag.Diagnostics, check string, sev diag.Severity) bool {
	for _, it := range d.Items() {
		if it.Check == check && it.Severity == sev {
			return true
		}
	}
	return false
}
