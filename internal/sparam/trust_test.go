package sparam

import (
	"errors"
	"strings"
	"testing"

	"pdnsim/internal/diag"
	"pdnsim/internal/mat"
	"pdnsim/internal/simerr"
)

// sweepOf wraps hand-built S matrices into a Sweep for Verify tests.
func sweepOf(mats ...*mat.CMatrix) *Sweep {
	sw := &Sweep{Z0: 50}
	for i, s := range mats {
		sw.Points = append(sw.Points, Point{Freq: 1e9 * float64(i+1), S: s})
	}
	return sw
}

func diagCMatrix(d ...complex128) *mat.CMatrix {
	m := mat.CNew(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

func TestVerifyPassesHealthySweep(t *testing.T) {
	// Symmetric with σmax well below 1: passive and reciprocal.
	s := mat.CNew(2, 2)
	s.Set(0, 0, complex(0.3, -0.1))
	s.Set(0, 1, complex(0.2, 0.05))
	s.Set(1, 0, complex(0.2, 0.05))
	s.Set(1, 1, complex(0.4, 0.1))
	sw := sweepOf(s)
	if err := sw.Verify(); err != nil {
		t.Fatalf("healthy sweep must verify: %v", err)
	}
	if w, ok := sw.Diag.Worst(); !ok || w != diag.Info {
		t.Fatalf("healthy sweep must record Info margins, got worst %v (recorded %v)", w, ok)
	}
	if len(sw.Diag.Items()) < 2 {
		t.Fatal("Verify must record both passivity and reciprocity margins")
	}
}

func TestVerifyWarnsOnMarginalPassivityViolation(t *testing.T) {
	// σmax = 1 + 1e-6: inside the (PassWarnTol, PassFailTol] degradation
	// band — flagged, not fatal.
	sw := sweepOf(diagCMatrix(complex(1+1e-6, 0), complex(0.5, 0)))
	if err := sw.Verify(); err != nil {
		t.Fatalf("marginal passivity violation must not escalate: %v", err)
	}
	if w, _ := sw.Diag.Worst(); w != diag.Warning {
		t.Fatalf("worst = %v; want Warning\n%s", w, sw.Diag.Render(true))
	}
}

func TestVerifyEscalatesGrossPassivityViolation(t *testing.T) {
	sw := sweepOf(diagCMatrix(complex(0.5, 0), complex(0.5, 0)),
		diagCMatrix(complex(2, 0), complex(0.5, 0)))
	err := sw.Verify()
	if !errors.Is(err, simerr.ErrIllConditioned) {
		t.Fatalf("σmax=2 must escalate to ErrIllConditioned, got %v", err)
	}
	var ice *simerr.IllConditionedError
	if !errors.As(err, &ice) || !strings.Contains(ice.Quantity, "singular value") {
		t.Fatalf("escalation must carry the singular-value detail, got %+v", ice)
	}
	if w, _ := sw.Diag.Worst(); w != diag.Error {
		t.Fatalf("worst = %v; want Error", w)
	}
}

func TestVerifyEscalatesGrossReciprocityViolation(t *testing.T) {
	// Passive (σmax = 0.9) but grossly non-reciprocal: S01 ≠ S10.
	s := mat.CNew(2, 2)
	s.Set(0, 1, complex(0.9, 0))
	sw := sweepOf(s)
	err := sw.Verify()
	if !errors.Is(err, simerr.ErrIllConditioned) {
		t.Fatalf("non-reciprocal S must escalate to ErrIllConditioned, got %v", err)
	}
	var ice *simerr.IllConditionedError
	if !errors.As(err, &ice) || !strings.Contains(ice.Quantity, "reciprocity") {
		t.Fatalf("escalation must carry the reciprocity detail, got %+v", ice)
	}
}

func TestVerifyResetsDiagBetweenCalls(t *testing.T) {
	sw := sweepOf(diagCMatrix(complex(0.5, 0)))
	if err := sw.Verify(); err != nil {
		t.Fatal(err)
	}
	n := len(sw.Diag.Items())
	if err := sw.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(sw.Diag.Items()) != n {
		t.Fatalf("repeated Verify must not accumulate records: %d → %d", n, len(sw.Diag.Items()))
	}
}
