// Benchmark harness: one benchmark per figure/table of the paper's
// evaluation section (see DESIGN.md §3 for the experiment index), plus the
// ablation studies of DESIGN.md §5. Each benchmark reports the headline
// reproduction metric alongside the timing, so
//
//	go test -bench=. -benchmem
//
// regenerates both the performance profile and the paper-vs-measured
// numbers recorded in EXPERIMENTS.md.
package pdnsim

import (
	"math"
	"os"
	"testing"
	"time"

	"pdnsim/internal/core"
	"pdnsim/internal/experiments"
)

// BenchmarkFig1SplitPlaneMesh — paper Fig. 1: discretisation and extraction
// of the complementary split MCM power planes.
func BenchmarkFig1SplitPlaneMesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1SplitPlaneMesh(28, 20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Net33.Cells+r.Net50.Cells), "cells")
		b.ReportMetric(r.TotalC33*1e12, "pF_33V_net")
	}
}

// BenchmarkEx1LPatchResonance — §6.1 example 1: first two resonances of the
// L-shaped patch; the reproduction metric is the deviation from the
// full-wave substitute (FDTD), which the paper reports as +3.0 % / +5.8 %.
func BenchmarkEx1LPatchResonance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Ex1LPatchResonance(14)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(r.F0GHz/r.RefF0GHz-1), "f0_dev_%")
		b.ReportMetric(100*(r.F1GHz/r.RefF1GHz-1), "f1_dev_%")
	}
}

// BenchmarkFig5Transient — Figs. 4–5: coupled-microstrip transient with
// near/far-end crosstalk (both 5(a) and 5(b) come from this run).
func BenchmarkFig5Transient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5CoupledMicrostrip()
		if err != nil {
			b.Fatal(err)
		}
		var fext float64
		for _, v := range r.VictimFar {
			if -v > fext {
				fext = -v
			}
		}
		b.ReportMetric(fext*1e3, "FEXT_mV")
	}
}

// BenchmarkFig7SParams — Figs. 6–7: |S21| of the HP test plane, 42-node
// equivalent circuit vs the cavity reference over 0.5–15 GHz.
func BenchmarkFig7SParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7HPPlaneSParams(16, 37, 120)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MedianDBLow, "median_dB_below10GHz")
		b.ReportMetric(r.MedianDBHigh, "median_dB_above10GHz")
	}
}

// BenchmarkFig8TransientVsFDTD — Fig. 8: port-2 transient, equivalent
// circuit vs 2-D FDTD.
func BenchmarkFig8TransientVsFDTD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8TransientVsFDTD(16, 37)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.RMS, "RMS_%")
	}
}

// BenchmarkSSN1Prelayout — §6.2 pre-layout study: 7×10" board, 16-driver
// chip, switching-count and decap sweeps.
func BenchmarkSSN1Prelayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.SSN1Prelayout(experiments.SSN1Config{})
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.BouncePerCount) - 1
		b.ReportMetric(r.BouncePerCount[last]*1e3, "bounce16_mV")
		b.ReportMetric(r.DroopPerDecap[len(r.DroopPerDecap)-1]*1e3, "droop8decap_mV")
	}
}

// BenchmarkSSN2Postlayout — §6.2 post-layout study: 26 chips, 156 Vcc pins.
func BenchmarkSSN2Postlayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.SSN2Postlayout(experiments.SSN2Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.WorstBounce*1e3, "worst_bounce_mV")
	}
}

// BenchmarkAblationTesting — DESIGN.md §5: collocation vs Galerkin.
func BenchmarkAblationTesting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationTesting(12)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.RelativeCDisagreement, "scheme_disagreement_%")
	}
}

// BenchmarkAblationToeplitz — DESIGN.md §5: kernel cache effectiveness.
func BenchmarkAblationToeplitz(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationToeplitz(12)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.DirectEvals)/float64(r.CachedEvals), "eval_reduction_x")
	}
}

// BenchmarkAblationImages — DESIGN.md §5: image-series depth.
func BenchmarkAblationImages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationImages(10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RelErr[3]*100, "err_at_8_images_%")
	}
}

// BenchmarkAblationIntegrator — DESIGN.md §5: trapezoidal vs backward Euler.
func BenchmarkAblationIntegrator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationIntegrator(12, 20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.RMSTrapVsFDTD, "trap_RMS_%")
		b.ReportMetric(100*r.RMSBEVsFDTD, "BE_RMS_%")
	}
}

// BenchmarkFosterMOR — DESIGN.md §5b: exact Foster model-order reduction of
// the HP plane driving-point impedance; reports the order shrink of a
// 10 GHz truncation.
func BenchmarkFosterMOR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.FosterMOR(16, 37, 10e9)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.FullOrder), "full_order")
		b.ReportMetric(float64(r.TruncOrder), "trunc_order")
		b.ReportMetric(100*r.MaxErrBelowHalf, "err_below_fmax/2_%")
	}
}

// BenchmarkExtractLargeMesh — DESIGN.md §5l: the FFT-accelerated operator
// solve path (Toeplitz matvec + projected CG) against the dense LU reduction
// at a 32×32-cell plane, past the auto-mode crossover. The dense baseline is
// extracted once outside the timed loop; dense_over_cg_x is its wall time
// over the operator path's per-op time, and cap_dev_rel is the relative
// total-capacitance disagreement between the two paths. Skipped in smoke
// runs: the dense baseline alone takes several seconds.
func BenchmarkExtractLargeMesh(b *testing.B) {
	if os.Getenv("BENCH_SMOKE") == "1" {
		b.Skip("multi-second dense baseline; full bench runs only")
	}
	spec := func(operator string) *core.BoardSpec {
		return &core.BoardSpec{
			Name:       "large plane " + operator,
			Shape:      core.ShapeSpec{Type: "rect", W: 50, H: 40},
			PlaneSepMM: 0.4,
			EpsR:       4.5,
			SheetRes:   0.0006,
			Operator:   operator,
			MeshNx:     32,
			MeshNy:     32,
			ExtraNodes: 8,
			Ports: []core.PortSpec{
				{Name: "U1", X: 40, Y: 30},
				{Name: "U2", X: 12, Y: 8},
				{Name: "VRM", X: 5, Y: 35},
			},
		}
	}
	t0 := time.Now()
	dense, err := spec("dense").Extract()
	if err != nil {
		b.Fatal(err)
	}
	denseSec := time.Since(t0).Seconds()
	var capDev float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := spec("toeplitz").Extract()
		if err != nil {
			b.Fatal(err)
		}
		cd, ct := dense.Network.TotalCapacitance(), res.Network.TotalCapacitance()
		capDev = math.Abs(ct-cd) / math.Abs(cd)
	}
	b.ReportMetric(denseSec/(b.Elapsed().Seconds()/float64(b.N)), "dense_over_cg_x")
	b.ReportMetric(capDev, "cap_dev_rel")
}

// BenchmarkExtractDense — DESIGN.md §5l: one ~600-cell board (24×25 grid)
// extracted on the dense path, below the operator gate, where the
// O(n³) reduction (Γ = YᵀY, one Γ_ii factor, C_red = Wᵀ·P⁻¹·W) leads the
// job time. Short enough for the smoke gate.
func BenchmarkExtractDense(b *testing.B) {
	spec := &core.BoardSpec{
		Name:       "dense plane",
		Shape:      core.ShapeSpec{Type: "rect", W: 50, H: 40},
		PlaneSepMM: 0.4,
		EpsR:       4.5,
		SheetRes:   0.0006,
		Operator:   "dense",
		MeshNx:     24,
		MeshNy:     25,
		ExtraNodes: 8,
		Ports: []core.PortSpec{
			{Name: "U1", X: 40, Y: 30},
			{Name: "U2", X: 12, Y: 8},
			{Name: "VRM", X: 5, Y: 35},
		},
	}
	var cells int
	for i := 0; i < b.N; i++ {
		res, err := spec.Extract()
		if err != nil {
			b.Fatal(err)
		}
		cells = len(res.Mesh.Cells)
	}
	b.ReportMetric(float64(cells), "cells")
}

// BenchmarkAblationMesh — DESIGN.md §5: mesh-density convergence of the
// first plane resonance.
func BenchmarkAblationMesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationMesh()
		if err != nil {
			b.Fatal(err)
		}
		finest := r.F0GHz[len(r.F0GHz)-1]
		b.ReportMetric(100*(finest/r.Target-1), "finest_vs_cavity_%")
	}
}
