package diag

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"pdnsim/internal/mat"
	"pdnsim/internal/simerr"
)

func TestNilCollectorIsNoOpSink(t *testing.T) {
	var d *Diagnostics
	d.Add(Diagnostic{Stage: "x"})
	d.Infof("s", "c", 1, 2, "msg")
	d.Warnf("s", "c", 1, 2, true, "msg")
	d.Errorf("s", "c", 1, 2, "msg")
	d.Merge(New())
	if len(d.Items()) != 0 || d.Items() != nil {
		t.Fatal("nil collector must discard everything")
	}
	if _, ok := d.Worst(); ok {
		t.Fatal("nil collector has no worst severity")
	}
}

func TestWorstAndHasWarnings(t *testing.T) {
	d := New()
	if _, ok := d.Worst(); ok {
		t.Fatal("empty collector must report no worst severity")
	}
	d.Infof("mat", "cond", 10, 1e8, "fine")
	if w, ok := d.Worst(); !ok || w != Info {
		t.Fatalf("Worst = %v, %v; want Info, true", w, ok)
	}
	if w, _ := d.Worst(); w >= Warning {
		t.Fatal("Info-only collector must not report warnings")
	}
	d.Warnf("extract", "C symmetry", 1e-10, 1e-12, true, "symmetrised")
	d.Errorf("fdtd", "CFL", 1.5, 1, "unstable")
	if w, _ := d.Worst(); w != Error {
		t.Fatalf("Worst = %v; want Error", w)
	}
}

func TestMergeCopiesAllRecords(t *testing.T) {
	a, b := New(), New()
	a.Infof("s1", "c1", 0, 0, "one")
	b.Warnf("s2", "c2", 0, 0, false, "two")
	b.Errorf("s3", "c3", 0, 0, "three")
	a.Merge(b)
	if len(a.Items()) != 3 {
		t.Fatalf("merged Len = %d; want 3", len(a.Items()))
	}
	// Merge must copy, not alias: mutating b afterwards leaves a unchanged.
	b.Infof("s4", "c4", 0, 0, "four")
	if len(a.Items()) != 3 {
		t.Fatal("Merge must snapshot, not alias, the source")
	}
}

func TestRenderSeverityOrderAndVerbosity(t *testing.T) {
	d := New()
	d.Infof("mat", "cond", 3, 1e8, "healthy")
	d.Warnf("extract", "C symmetry", 1e-9, 1e-12, true, "symmetrised")
	d.Errorf("fdtd", "CFL margin", 1.2, 1, "over the Courant limit")

	quiet := d.Render(false)
	if strings.Contains(quiet, "healthy") {
		t.Fatal("non-verbose Render must hide Info records")
	}
	ei := strings.Index(quiet, "[error]")
	wi := strings.Index(quiet, "[warning]")
	if ei < 0 || wi < 0 || ei > wi {
		t.Fatalf("errors must render before warnings:\n%s", quiet)
	}
	if !strings.Contains(quiet, "(auto-repaired)") {
		t.Fatalf("repaired warning must be labelled:\n%s", quiet)
	}

	verbose := d.Render(true)
	if !strings.Contains(verbose, "[info] mat: cond: healthy") {
		t.Fatalf("verbose Render must include Info records:\n%s", verbose)
	}
	if New().Render(true) != "" {
		t.Fatal("empty collector must render to the empty string")
	}
}

func TestConcurrentAdd(t *testing.T) {
	d := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				d.Infof("s", "c", float64(j), 0, "n")
			}
		}()
	}
	wg.Wait()
	if len(d.Items()) != 1600 {
		t.Fatalf("Len = %d; want 1600", len(d.Items()))
	}
}

// mat3 builds a 3×3 matrix from its rows.
func mat3(rows [3][3]float64) *mat.Matrix {
	m := mat.New(3, 3)
	for i, row := range rows {
		for j, v := range row {
			m.Set(i, j, v)
		}
	}
	return m
}

func symmetric3() *mat.Matrix {
	return mat3([3][3]float64{
		{4, 1, 0},
		{1, 3, 1},
		{0, 1, 5},
	})
}

func TestCheckSymmetricBands(t *testing.T) {
	// Clean matrix: no diagnostic, no error.
	d := New()
	if err := CheckSymmetric(d, "t", "M", symmetric3()); err != nil || len(d.Items()) != 0 {
		t.Fatalf("clean symmetric matrix: err=%v len=%d", err, len(d.Items()))
	}

	// Warn band: roundoff-scale asymmetry is symmetrised away.
	d = New()
	m := symmetric3()
	m.Set(0, 1, m.At(0, 1)+1e-10*m.MaxAbs())
	if err := CheckSymmetric(d, "t", "M", m); err != nil {
		t.Fatalf("warn-band asymmetry must not escalate: %v", err)
	}
	if w, _ := d.Worst(); w != Warning {
		t.Fatalf("warn-band asymmetry: worst = %v; want Warning", w)
	}
	if m.Asymmetry() > SymWarnTol {
		t.Fatalf("matrix must be repaired in place, asymmetry %g", m.Asymmetry())
	}
	items := d.Items()
	if !items[0].Repaired {
		t.Fatal("warn-band diagnostic must be marked repaired")
	}

	// Fail band: gross asymmetry escalates as ErrIllConditioned.
	d = New()
	m = symmetric3()
	m.Set(0, 1, 100)
	err := CheckSymmetric(d, "t", "M", m)
	if !errors.Is(err, simerr.ErrIllConditioned) {
		t.Fatalf("gross asymmetry must escalate to ErrIllConditioned, got %v", err)
	}
	if w, _ := d.Worst(); w != Error {
		t.Fatalf("fail-band asymmetry: worst = %v; want Error", w)
	}
}

func TestCheckPSDBands(t *testing.T) {
	// PD matrix: clean pass.
	d := New()
	if err := CheckPSD(d, "t", "M", symmetric3()); err != nil || len(d.Items()) != 0 {
		t.Fatalf("PD matrix: err=%v len=%d", err, len(d.Items()))
	}

	// Zero matrix is PSD.
	if err := CheckPSD(New(), "t", "Z", mat.New(3, 3)); err != nil {
		t.Fatalf("zero matrix must pass PSD: %v", err)
	}

	// Singular-but-PSD (graph Laplacian with ones-nullspace) passes.
	lap := mat3([3][3]float64{
		{1, -1, 0},
		{-1, 2, -1},
		{0, -1, 1},
	})
	if err := CheckPSD(New(), "t", "Γ", lap); err != nil {
		t.Fatalf("Laplacian must pass PSD: %v", err)
	}

	// Tiny negative eigenvalue: clipped in place, Warning recorded.
	d = New()
	m := symmetric3()
	vals, vecs, err := mat.JacobiEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild with the smallest eigenvalue pushed slightly negative.
	lmax := math.Abs(vals[len(vals)-1])
	vals[0] = -lmax * EigClipRel * 10
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var s float64
			for k, lk := range vals {
				s += vecs.At(i, k) * lk * vecs.At(j, k)
			}
			m.Set(i, j, s)
		}
	}
	m.Symmetrize()
	if err := CheckPSD(d, "t", "M", m); err != nil {
		t.Fatalf("tiny negative eigenvalue must be repaired, not escalated: %v", err)
	}
	if w, _ := d.Worst(); w != Warning {
		t.Fatalf("clip repair: worst = %v; want Warning", w)
	}
	rvals, _, err := mat.JacobiEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	if rvals[0] < -EigClipRel*lmax {
		t.Fatalf("repaired matrix still indefinite: λmin = %g", rvals[0])
	}

	// Genuinely indefinite: escalates.
	d = New()
	ind := mat3([3][3]float64{
		{1, 0, 0},
		{0, -2, 0},
		{0, 0, 3},
	})
	err = CheckPSD(d, "t", "M", ind)
	if !errors.Is(err, simerr.ErrIllConditioned) {
		t.Fatalf("indefinite matrix must escalate to ErrIllConditioned, got %v", err)
	}
}

func TestCheckCondBands(t *testing.T) {
	d := New()
	if err := CheckCond(d, "t", "κ", 1e3); err != nil {
		t.Fatalf("healthy κ: %v", err)
	}
	if w, _ := d.Worst(); w != Info {
		t.Fatalf("healthy κ: worst = %v; want Info", w)
	}

	d = New()
	if err := CheckCond(d, "t", "κ", 1e10); err != nil {
		t.Fatalf("warn-band κ must not escalate: %v", err)
	}
	if w, _ := d.Worst(); w != Warning {
		t.Fatalf("warn-band κ: worst = %v; want Warning", w)
	}

	for _, cond := range []float64{1e15, math.Inf(1)} {
		d = New()
		err := CheckCond(d, "t", "κ", cond)
		if !errors.Is(err, simerr.ErrIllConditioned) {
			t.Fatalf("κ=%g must escalate to ErrIllConditioned, got %v", cond, err)
		}
		var ice *simerr.IllConditionedError
		if !errors.As(err, &ice) || ice.Value != cond {
			t.Fatalf("κ=%g: structured detail missing or wrong: %+v", cond, ice)
		}
	}
}

func TestTrustworthyDigits(t *testing.T) {
	for _, tc := range []struct {
		cond float64
		want int
	}{
		{0.5, 16}, {1, 16}, {1e4, 12}, {1e8, 8}, {1e16, 0}, {1e20, 0},
	} {
		if got := trustworthyDigits(tc.cond); got != tc.want {
			t.Errorf("trustworthyDigits(%g) = %d; want %d", tc.cond, got, tc.want)
		}
	}
}
