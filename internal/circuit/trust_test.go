package circuit

import (
	"math"
	"testing"

	"pdnsim/internal/diag"
)

// TestTranCarriesTrustDiagnostics: every transient result must carry the
// per-step residual and conditioning trail, and a healthy RC decay must not
// record anything worse than a Warning (the regularised MNA matrix may
// legitimately carry a large κ; the residual is the authoritative signal).
func TestTranCarriesTrustDiagnostics(t *testing.T) {
	c := New()
	n := c.Node("n")
	if _, err := c.AddVSource("V1", n, Ground, DC(1)); err != nil {
		t.Fatal(err)
	}
	out := c.Node("out")
	if _, err := c.AddResistor("R1", n, out, 1e3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddCapacitor("C1", out, Ground, 1e-9); err != nil {
		t.Fatal(err)
	}
	res, err := c.Tran(TranOptions{Dt: 10e-9, Tstop: 5e-6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diag == nil || len(res.Diag.Items()) == 0 {
		t.Fatal("transient result must carry its trust trail")
	}
	if w, _ := res.Diag.Worst(); w >= diag.Error {
		t.Fatalf("healthy RC transient recorded an Error diagnostic:\n%s", res.Diag.Render(true))
	}
	// The per-step residual uses the fast uncompensated kernel
	// (mat.ResidualVecN), under which a tiny well-scaled system can read
	// exactly zero — the solve is exact at plain evaluation precision — so
	// zero is a legitimate reading; only negative or NaN means the tracking
	// is broken.
	if r := res.Stats.WorstStepResidual; r < 0 || math.IsNaN(r) {
		t.Fatalf("per-step residual tracking recorded a nonsensical worst residual %g", r)
	}
	if res.Stats.WorstStepResidual > 1e-9 {
		t.Fatalf("healthy RC transient residual %g is implausibly large", res.Stats.WorstStepResidual)
	}
	if res.Stats.CondEstimate <= 0 {
		t.Fatal("conditioning of the factorised MNA matrix must be estimated")
	}
}
