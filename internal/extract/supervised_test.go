package extract

import (
	"context"
	"errors"
	"math"
	"testing"

	"pdnsim/internal/bem"
	"pdnsim/internal/diag"
	"pdnsim/internal/geom"
	"pdnsim/internal/simerr"
	"pdnsim/internal/supervise"
)

func supervisedFixture(t *testing.T) *bem.Assembly {
	t.Helper()
	return buildPlane(t, 20e-3, 0.4e-3, 4.5, 8,
		[]geom.Point{{X: 2e-3, Y: 2e-3}, {X: 18e-3, Y: 18e-3}}, []string{"A", "B"})
}

// TestExtractSupervisedHealthyAssembly: a well-conditioned assembly must
// extract on the first attempt with no regularization, producing the same
// network as the plain entry point.
func TestExtractSupervisedHealthyAssembly(t *testing.T) {
	a := supervisedFixture(t)
	plain, err := ExtractCtx(context.Background(), a, Options{ExtraNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	nw, st, err := ExtractSupervised(context.Background(), a, Options{ExtraNodes: 4},
		supervise.Policy{Backoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Attempts != 1 || st.PerturbRel != 0 {
		t.Fatalf("healthy extraction must succeed unperturbed on attempt 1, got %+v", st)
	}
	if nw.NumNodes() != plain.NumNodes() || nw.NumPorts != plain.NumPorts {
		t.Fatalf("supervised network shape %d/%d differs from plain %d/%d",
			nw.NumNodes(), nw.NumPorts, plain.NumNodes(), plain.NumPorts)
	}
	for i := range nw.Gamma.Data {
		if nw.Gamma.Data[i] != plain.Gamma.Data[i] {
			t.Fatal("unperturbed supervised extraction must be bit-identical to the plain one")
		}
	}
}

// TestExtractRegularizeValidation: the loading fraction is screened like any
// other numeric input.
func TestExtractRegularizeValidation(t *testing.T) {
	a := supervisedFixture(t)
	for _, reg := range []float64{math.NaN(), math.Inf(1), -1e-9} {
		if _, err := ExtractCtx(context.Background(), a, Options{Regularize: reg}); !errors.Is(err, simerr.ErrBadInput) {
			t.Fatalf("Regularize=%g must be ErrBadInput, got %v", reg, err)
		}
	}
}

// TestExtractRegularizeIsGentleAndRecorded: an explicit parts-per-billion
// loading must be recorded in the trust trail while leaving the extracted
// invariants (total plane capacitance) essentially untouched.
func TestExtractRegularizeIsGentleAndRecorded(t *testing.T) {
	a := supervisedFixture(t)
	plain, err := ExtractCtx(context.Background(), a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ExtractCtx(context.Background(), a, Options{Regularize: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := loaded.Diag.Worst(); w < diag.Warning {
		t.Fatal("diagonal loading must be recorded as a repair in the Diag trail")
	}
	c0, c1 := plain.TotalCapacitance(), loaded.TotalCapacitance()
	if rel := math.Abs(c1-c0) / c0; rel > 1e-6 {
		t.Fatalf("1e-9 loading moved total capacitance by %g relative; must be invisible", rel)
	}
}

// TestExtractSupervisedRetriesEscalateRegularization: when the first attempt
// fails retryably, the supervisor's escalating perturbation must arrive as
// the Regularize loading of the retries.
func TestExtractSupervisedRetriesEscalateRegularization(t *testing.T) {
	// Drive the supervisor directly with the same closure shape
	// ExtractSupervised uses, but a probe in place of the real extraction:
	// the real pipeline has no injectable rank deficiency, and what is under
	// test here is the perturbation→Regularize mapping.
	var seen []float64
	_, st := supervise.Do(context.Background(), supervise.Policy{Backoff: -1}, 0,
		func(_ context.Context, perturbRel float64) (*Network, error) {
			o := Options{}
			if perturbRel > o.Regularize {
				o.Regularize = perturbRel
			}
			seen = append(seen, o.Regularize)
			return nil, &simerr.SingularError{Op: "test: rank-deficient assembly"}
		})
	if st.Err == nil {
		t.Fatal("probe always fails")
	}
	if len(seen) != supervise.DefaultMaxAttempts {
		t.Fatalf("want %d attempts, got %d", supervise.DefaultMaxAttempts, len(seen))
	}
	if seen[0] != 0 {
		t.Fatalf("first attempt must be exact (no loading), got %g", seen[0])
	}
	for k := 1; k < len(seen); k++ {
		if seen[k] <= seen[k-1] {
			t.Fatalf("loading must escalate across retries, got %v", seen)
		}
	}
	if seen[1] != supervise.DefaultPerturbRel {
		t.Fatalf("first retry must load by the documented base %g, got %g",
			supervise.DefaultPerturbRel, seen[1])
	}
}
