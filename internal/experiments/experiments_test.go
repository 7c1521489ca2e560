package experiments

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"pdnsim/internal/simerr"
)

func TestTable(t *testing.T) {
	s := Table([]string{"a", "bb"}, [][]string{{"xxx", "y"}})
	if !strings.Contains(s, "a    bb") && !strings.Contains(s, "a  ") {
		t.Fatalf("table:\n%s", s)
	}
	if !strings.Contains(s, "---") {
		t.Fatal("missing separator")
	}
}

func TestRMSDiffAndResample(t *testing.T) {
	if rmsDiff([]float64{1, 1}, []float64{1, 1}) != 0 {
		t.Fatal("identical waveforms")
	}
	if d := rmsDiff([]float64{2}, []float64{1}); math.Abs(d-1) > 1e-12 {
		t.Fatalf("rmsDiff = %g", d)
	}
	got := resample([]float64{0, 1, 2}, []float64{0, 10, 20}, []float64{-1, 0.5, 1.5, 3})
	want := []float64{0, 5, 15, 20}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("resample = %v", got)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %g", m)
	}
	if median(nil) != 0 {
		t.Fatal("empty median")
	}
}

func TestFig1SplitPlaneMesh(t *testing.T) {
	r, err := Fig1SplitPlaneMesh(context.Background(), 20, 14)
	if err != nil {
		t.Fatal(err)
	}
	if r.Net33.Cells == 0 || r.Net50.Cells == 0 {
		t.Fatal("empty nets")
	}
	if r.Net33.Ports != 3 || r.Net50.Ports != 2 {
		t.Fatalf("port counts: %d/%d", r.Net33.Ports, r.Net50.Ports)
	}
	// The 3.3 V net is larger, so it must have more cells and capacitance.
	if r.Net33.Cells <= r.Net50.Cells || r.TotalC33 <= r.TotalC50 {
		t.Fatalf("net size ordering: %d/%d cells, %g/%g F",
			r.Net33.Cells, r.Net50.Cells, r.TotalC33, r.TotalC50)
	}
	if !strings.Contains(r.String(), "VCC0") {
		t.Fatal("table rendering")
	}
}

func TestEx1LPatchResonance(t *testing.T) {
	r, err := Ex1LPatchResonance(context.Background(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if r.F0GHz <= 0 || r.F1GHz <= r.F0GHz {
		t.Fatalf("resonance ordering: %g, %g", r.F0GHz, r.F1GHz)
	}
	d0 := math.Abs(r.F0GHz/r.RefF0GHz - 1)
	d1 := math.Abs(r.F1GHz/r.RefF1GHz - 1)
	if d0 > 0.15 || d1 > 0.15 {
		t.Fatalf("deviation from FDTD reference too large: %.1f%% / %.1f%%", 100*d0, 100*d1)
	}
	// The paper's equivalent circuit overestimates slightly (+3/+5.8%);
	// ours must show the same sign.
	if r.F0GHz < r.RefF0GHz || r.F1GHz < r.RefF1GHz {
		t.Fatalf("expected quasi-static overestimate: %g vs %g, %g vs %g",
			r.F0GHz, r.RefF0GHz, r.F1GHz, r.RefF1GHz)
	}
	if !strings.Contains(r.String(), "paper") {
		t.Fatal("table rendering")
	}
}

func TestFig5CoupledMicrostrip(t *testing.T) {
	r, err := Fig5CoupledMicrostrip()
	if err != nil {
		t.Fatal(err)
	}
	peak := func(v []float64) (hi, lo float64) {
		hi, lo = math.Inf(-1), math.Inf(1)
		for _, x := range v {
			hi = math.Max(hi, x)
			lo = math.Min(lo, x)
		}
		return
	}
	// Active line: roughly the 50 Ω divider of a ~60 Ω line.
	if hi, _ := peak(r.ActiveNear); hi < 2 || hi > 3.5 {
		t.Fatalf("active near peak = %g", hi)
	}
	if hi, _ := peak(r.ActiveFar); hi < 1.8 || hi > 3.2 {
		t.Fatalf("active far peak = %g", hi)
	}
	// Microstrip far-end crosstalk is negative (faster odd mode).
	if _, lo := peak(r.VictimFar); lo > -0.1 {
		t.Fatalf("far-end crosstalk should be clearly negative, trough = %g", lo)
	}
	if hi, _ := peak(r.VictimNear); hi < 0.02 {
		t.Fatalf("near-end crosstalk missing: %g", hi)
	}
	// The far end must stay quiet until the fastest mode arrives.
	for i, tn := range r.TimeNs {
		if tn < 0.9*r.DelayOddNs {
			if math.Abs(r.ActiveFar[i]) > 0.05 {
				t.Fatalf("causality violated at %.2f ns: %g", tn, r.ActiveFar[i])
			}
		}
	}
	// Even mode is slower than odd on microstrip.
	if r.DelayEvenNs <= r.DelayOddNs {
		t.Fatalf("modal delay ordering: even %g, odd %g", r.DelayEvenNs, r.DelayOddNs)
	}
	if r.Z0Even <= r.Z0Odd {
		t.Fatal("even-mode impedance must exceed odd")
	}
	if !strings.Contains(r.String(), "victim far end") {
		t.Fatal("table rendering")
	}
}

func TestFig7HPPlaneSParams(t *testing.T) {
	r, err := Fig7HPPlaneSParams(context.Background(), 12, 20, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.FreqGHz) != 40 {
		t.Fatalf("points = %d", len(r.FreqGHz))
	}
	// The paper's qualitative claim: good agreement below 10 GHz,
	// systematic divergence above.
	if r.MedianDBLow >= r.MedianDBHigh {
		t.Fatalf("low-band agreement (%.2f dB) should beat high-band (%.2f dB)",
			r.MedianDBLow, r.MedianDBHigh)
	}
	if r.MedianDBLow > 5 {
		t.Fatalf("low-band median deviation too large: %.2f dB", r.MedianDBLow)
	}
	// The second independent reference (FDTD) must also track below 10 GHz.
	if len(r.S21FDTD) != len(r.FreqGHz) {
		t.Fatal("FDTD reference curve missing")
	}
	if r.MedianDBLowFDTD > 6 {
		t.Fatalf("low-band deviation vs FDTD too large: %.2f dB", r.MedianDBLowFDTD)
	}
	if !strings.Contains(r.String(), "10 GHz") {
		t.Fatal("summary rendering")
	}
}

func TestFig8TransientVsFDTD(t *testing.T) {
	r, err := Fig8TransientVsFDTD(context.Background(), 12, 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.RMS > 0.12 {
		t.Fatalf("equivalent circuit vs FDTD RMS = %.1f%%", 100*r.RMS)
	}
	var peak float64
	for _, v := range r.Port2FDTD {
		peak = math.Max(peak, math.Abs(v))
	}
	if peak < 0.1 {
		t.Fatal("port 2 saw no signal")
	}
	if !strings.Contains(r.String(), "FDTD") {
		t.Fatal("summary rendering")
	}
}

func TestSSN1PrelayoutTrends(t *testing.T) {
	r, err := SSN1Prelayout(SSN1Config{
		MeshNx: 14, MeshNy: 10,
		SwitchingCounts: []int{2, 8},
		DecapCounts:     []int{0, 4},
		Tstop:           5e-9, Dt: 0.05e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.BouncePerCount[1] <= r.BouncePerCount[0] {
		t.Fatalf("bounce must grow with switching count: %v", r.BouncePerCount)
	}
	if r.DroopPerDecap[1] >= r.DroopPerDecap[0] {
		t.Fatalf("decaps must reduce droop: %v", r.DroopPerDecap)
	}
	if !strings.Contains(r.String(), "Decap effectiveness") {
		t.Fatal("table rendering")
	}
}

func TestSSN2PostlayoutSmall(t *testing.T) {
	r, err := SSN2Postlayout(SSN2Config{
		MeshNx: 16, MeshNy: 12, Chips: 6, Tstop: 4e-9, Dt: 0.05e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.WorstBounce <= 0 || r.WorstBounce > 3.3 {
		t.Fatalf("worst bounce = %g", r.WorstBounce)
	}
	if r.WorstChip == "" {
		t.Fatal("no worst chip identified")
	}
	if r.MeanBounce > r.WorstBounce {
		t.Fatal("mean cannot exceed worst")
	}
	if !strings.Contains(r.String(), "chips") {
		t.Fatal("summary rendering")
	}
}

func TestAblationTesting(t *testing.T) {
	r, err := AblationTesting(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.RelativeCDisagreement > 0.05 {
		t.Fatalf("testing schemes disagree by %.1f%%", 100*r.RelativeCDisagreement)
	}
	if !strings.Contains(r.String(), "galerkin") {
		t.Fatal("rendering")
	}
}

func TestAblationToeplitz(t *testing.T) {
	r, err := AblationToeplitz(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.CachedEvals >= r.DirectEvals {
		t.Fatalf("cache must reduce evaluations: %d vs %d", r.CachedEvals, r.DirectEvals)
	}
	if r.MaxEntryError > 1e-9 {
		t.Fatalf("cache must be exact: %g", r.MaxEntryError)
	}
	if !strings.Contains(r.String(), "kernel evaluations") {
		t.Fatal("rendering")
	}
}

func TestAblationImages(t *testing.T) {
	r, err := AblationImages(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}
	last := len(r.RelErr) - 1
	if r.RelErr[last] != 0 { // reference is the deepest series
		t.Fatalf("reference error = %g", r.RelErr[last])
	}
	if r.RelErr[0] <= r.RelErr[last-1] {
		t.Fatalf("image error must shrink: %v", r.RelErr)
	}
	if r.RelErr[last-1] > 1e-2 {
		t.Fatalf("series unconverged: %v", r.RelErr)
	}
	if !strings.Contains(r.String(), "images") {
		t.Fatal("rendering")
	}
}

func TestAblationIntegrator(t *testing.T) {
	r, err := AblationIntegrator(context.Background(), 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	if r.RMSTrapVsFDTD > 0.15 || r.RMSBEVsFDTD > 0.4 {
		t.Fatalf("integrator RMS out of range: trap %g, BE %g", r.RMSTrapVsFDTD, r.RMSBEVsFDTD)
	}
	// Backward Euler's numerical damping hurts the resonant plane transient.
	if r.RMSTrapVsFDTD >= r.RMSBEVsFDTD {
		t.Fatalf("trapezoidal (%g) should beat backward Euler (%g)",
			r.RMSTrapVsFDTD, r.RMSBEVsFDTD)
	}
	if !strings.Contains(r.String(), "trapezoidal") {
		t.Fatal("rendering")
	}
}

func TestFosterMOR(t *testing.T) {
	r, err := FosterMOR(context.Background(), 10, 16, 10e9)
	if err != nil {
		t.Fatal(err)
	}
	if r.TruncOrder >= r.FullOrder {
		t.Fatalf("truncation must shrink the order: %d vs %d", r.TruncOrder, r.FullOrder)
	}
	if r.MaxErrBelowHalf > 0.35 {
		t.Fatalf("truncated model error too large: %.1f%%", 100*r.MaxErrBelowHalf)
	}
	if !strings.Contains(r.String(), "Foster MOR") {
		t.Fatal("rendering")
	}
}

func TestAblationMesh(t *testing.T) {
	r, err := AblationMesh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The BEM resonance sits slightly BELOW the ideal PMC-cavity value —
	// the boundary elements capture the fringing capacitance a real plane
	// has and the cavity model ignores. Assert the bias stays bounded and
	// the meshes agree with each other (self-consistency).
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, f := range r.F0GHz {
		lo = math.Min(lo, f)
		hi = math.Max(hi, f)
		if f > r.Target*1.01 || f < r.Target*0.90 {
			t.Fatalf("resonance %g outside [0.90, 1.01]·target %g", f, r.Target)
		}
	}
	if (hi-lo)/lo > 0.02 {
		t.Fatalf("mesh-to-mesh spread too large: %v", r.F0GHz)
	}
	if !strings.Contains(r.String(), "cavity mode") {
		t.Fatal("rendering")
	}
}

func TestExperimentsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func() error{
		"AblationToeplitz": func() error { _, err := AblationToeplitz(ctx, 8); return err },
		"AblationTesting":  func() error { _, err := AblationTesting(ctx, 8); return err },
		"AblationImages":   func() error { _, err := AblationImages(ctx, 6); return err },
		"AblationMesh":     func() error { _, err := AblationMesh(ctx); return err },
		"Fig1":             func() error { _, err := Fig1SplitPlaneMesh(ctx, 20, 14); return err },
		"Ex1":              func() error { _, err := Ex1LPatchResonance(ctx, 10); return err },
		"Fig7":             func() error { _, err := Fig7HPPlaneSParams(ctx, 12, 20, 40); return err },
		"Fig8":             func() error { _, err := Fig8TransientVsFDTD(ctx, 12, 20); return err },
		"FosterMOR":        func() error { _, err := FosterMOR(ctx, 10, 16, 10e9); return err },
		"Integrator":       func() error { _, err := AblationIntegrator(ctx, 10, 16); return err },
	} {
		if err := run(); !errors.Is(err, simerr.ErrCancelled) {
			t.Errorf("%s: cancelled ctx: want ErrCancelled, got %v", name, err)
		}
	}
}
