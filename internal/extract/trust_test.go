package extract

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pdnsim/internal/diag"
	"pdnsim/internal/geom"
	"pdnsim/internal/mat"
	"pdnsim/internal/simerr"
	"pdnsim/internal/sparam"
)

// requireSymPSD asserts that m is numerically symmetric and has no
// eigenvalue below -tol·λmax (PSD within roundoff). strictPD additionally
// requires λmin > 0.
func requireSymPSD(t *testing.T, name string, m *mat.Matrix, strictPD bool) {
	t.Helper()
	if asym := m.Asymmetry(); asym > 1e-9 {
		t.Fatalf("%s: relative asymmetry %g", name, asym)
	}
	sym := m.Clone()
	sym.Symmetrize()
	vals, _, err := mat.JacobiEigen(sym)
	if err != nil {
		t.Fatalf("%s: eigen: %v", name, err)
	}
	lmin, lmax := vals[0], vals[len(vals)-1]
	if lmin < -1e-9*lmax {
		t.Fatalf("%s: not PSD: λmin = %g, λmax = %g", name, lmin, lmax)
	}
	if strictPD && lmin <= 0 {
		t.Fatalf("%s: not PD: λmin = %g", name, lmin)
	}
}

// TestExtractedOperatorsSymmetricPSDRandomized is the property test of the
// extraction invariants: for randomized board geometries the reduced Maxwell
// capacitance must come out symmetric positive definite and the reduced
// inverse-inductance Laplacian symmetric positive semidefinite, with the
// trust trail recording no escalations.
func TestExtractedOperatorsSymmetricPSDRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			side := (5 + 35*rng.Float64()) * 1e-3
			h := (0.1 + 0.7*rng.Float64()) * 1e-3
			epsR := 1 + 7*rng.Float64()
			n := 4 + rng.Intn(4)
			ports := []geom.Point{
				{X: 0.25 * side, Y: 0.25 * side},
				{X: 0.75 * side, Y: 0.70 * side},
			}
			a := buildPlane(t, side, h, epsR, n, ports, []string{"P1", "P2"})
			nw, err := ExtractCtx(context.Background(), a, Options{ExtraNodes: rng.Intn(5)})
			if err != nil {
				t.Fatalf("side=%g h=%g epsR=%g n=%d: %v", side, h, epsR, n, err)
			}
			requireSymPSD(t, "reduced C", nw.C, true)
			requireSymPSD(t, "reduced Γ", nw.Gamma, false)
			if nw.G != nil {
				requireSymPSD(t, "reduced G", nw.G, false)
			}
			if nw.Diag == nil || len(nw.Diag.Items()) == 0 {
				t.Fatal("extraction must carry its trust trail")
			}
			if w, _ := nw.Diag.Worst(); w >= diag.Error {
				t.Fatalf("healthy extraction recorded an Error diagnostic:\n%s", nw.Diag.Render(true))
			}
		})
	}
}

// TestSweptSParametersReciprocalPassiveRandomized is the property test of
// the frequency-domain invariants: S-parameters swept from randomized
// extracted networks must verify as passive and reciprocal.
func TestSweptSParametersReciprocalPassiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			side := (8 + 25*rng.Float64()) * 1e-3
			h := (0.15 + 0.5*rng.Float64()) * 1e-3
			epsR := 2 + 5*rng.Float64()
			a := buildPlane(t, side, h, epsR, 5, []geom.Point{
				{X: 0.2 * side, Y: 0.3 * side},
				{X: 0.8 * side, Y: 0.75 * side},
			}, []string{"P1", "P2"})
			nw, err := ExtractCtx(context.Background(), a, Options{ExtraNodes: 2})
			if err != nil {
				t.Fatal(err)
			}
			freqs := sparam.LinSpace(0.05e9, 8e9, 25)
			sw, err := sparam.SweepZCtx(context.Background(), freqs, 50, nw.PortZCtx)
			if err != nil {
				t.Fatal(err)
			}
			if err := sw.Verify(); err != nil {
				t.Fatalf("extracted sweep failed physics verification: %v\n%s", err, sw.Diag.Render(true))
			}
			if len(sw.Diag.Items()) < 2 {
				t.Fatal("Verify must record passivity and reciprocity margins")
			}
		})
	}
}

// injectNearDuplicateRow overwrites row/column j of the symmetric matrix p
// with (1+eps) times row/column i, keeping the matrix symmetric. At eps=0
// rows i and j become identical (singular); tiny eps gives a near-singular
// but factorable matrix — the fault model of a degenerate BEM mesh where two
// panels coincide.
func injectNearDuplicateRow(p *mat.Matrix, i, j int, eps float64) {
	n := p.Rows
	row := make([]float64, n)
	for k := 0; k < n; k++ {
		row[k] = p.At(i, k)
	}
	row[j] = row[i]
	for k := 0; k < n; k++ {
		v := row[k] * (1 + eps)
		p.Set(j, k, v)
		p.Set(k, j, v)
	}
}

// TestExtractNearSingularAssemblyEscalates fault-injects a near-duplicate
// row into the BEM potential matrix — the signature of a degenerate mesh —
// and requires the extraction's trust layer to refuse with a structured
// ErrIllConditioned instead of silently emitting garbage branch values.
func TestExtractNearSingularAssemblyEscalates(t *testing.T) {
	a := buildPlane(t, 10e-3, 0.4e-3, 4.5, 5, []geom.Point{
		{X: 2e-3, Y: 2e-3}, {X: 8e-3, Y: 8e-3},
	}, []string{"P1", "P2"})
	injectNearDuplicateRow(a.P(), 0, 1, 1e-13)

	_, err := ExtractCtx(context.Background(), a, Options{})
	if err == nil {
		t.Fatal("near-singular assembly must not extract cleanly")
	}
	if !errors.Is(err, simerr.ErrIllConditioned) {
		t.Fatalf("want ErrIllConditioned class, got %v", err)
	}
	var ice *simerr.IllConditionedError
	if !errors.As(err, &ice) {
		t.Fatalf("want structured IllConditionedError detail, got %v", err)
	}
	if ice.Quantity == "" {
		t.Fatal("IllConditionedError must name the offending quantity")
	}
}
