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
	"context"
	"math"
	"os"
	"testing"
	"time"

	"pdnsim/internal/bem"
	"pdnsim/internal/circuit"
	"pdnsim/internal/core"
	"pdnsim/internal/experiments"
	"pdnsim/internal/geom"
	"pdnsim/internal/greens"
	"pdnsim/internal/mesh"
	"pdnsim/internal/pkgmodel"
	"pdnsim/internal/ssn"
)

// fig1Batch is how many Fig. 1 runs one iteration of
// BenchmarkFig1SplitPlaneMeshx4 makes. Both nets take the operator path, so
// one run is a ~30 ms job whose 2-iteration smoke runs spread past the 2x
// gate on a shared host; four make an iteration of about 0.1 s.
const fig1Batch = 4

// BenchmarkFig1SplitPlaneMeshx4 — paper Fig. 1: discretisation and
// extraction of the complementary split MCM power planes, fig1Batch times
// per iteration.
func BenchmarkFig1SplitPlaneMeshx4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for j := 0; j < fig1Batch; j++ {
			r, err := experiments.Fig1SplitPlaneMesh(context.Background(), 28, 20)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(r.Net33.Cells+r.Net50.Cells), "cells")
			b.ReportMetric(r.TotalC33*1e12, "pF_33V_net")
		}
	}
}

// BenchmarkEx1LPatchResonance — §6.1 example 1: first two resonances of the
// L-shaped patch; the reproduction metric is the deviation from the
// full-wave substitute (FDTD), which the paper reports as +3.0 % / +5.8 %.
func BenchmarkEx1LPatchResonance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Ex1LPatchResonance(context.Background(), 14)
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
		r, err := experiments.Fig7HPPlaneSParams(context.Background(), 16, 37, 120)
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
		r, err := experiments.Fig8TransientVsFDTD(context.Background(), 16, 37)
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

// BenchmarkSSNCosimNewton — §5.2 co-simulation with transistor-level
// drivers (DESIGN.md §5m): two CMOS chips of 8 switching drivers each and 6
// decaps on a 10×8-cell plane, 50 ps steps over 6 ns, 222 MNA unknowns.
// Every step runs Newton over the drivers. The plane build is not timed;
// ms_per_newton_iter is the transient's wall time per Newton iteration.
func BenchmarkSSNCosimNewton(b *testing.B) {
	board := ssn.Board{
		Shape:    geom.RectShape(0, 0, 60e-3, 45e-3),
		PlaneSep: 0.4e-3, EpsR: 4.5, SheetRes: 0.6e-3,
		MeshNx: 10, MeshNy: 8, ExtraNodes: 3, BranchTol: 1e-4,
	}
	vrm := ssn.VRM{At: geom.Point{X: 3e-3, Y: 2e-3}, V: 3.3, R: 2e-3, L: 15e-9}
	chip := func(name string, x, y, delay float64) ssn.Chip {
		return ssn.Chip{
			Name: name, At: geom.Point{X: x, Y: y}, Drivers: 10, Switching: 8,
			Vdd: 3.3, Pin: pkgmodel.QFPPin, VddPins: 2, Kind: ssn.CMOSDriver,
			LoadC: 15e-12, Delay: delay, Width: 2.5e-9, Slew: 0.3e-9,
		}
	}
	chips := []ssn.Chip{chip("U1", 30e-3, 20e-3, 1e-9), chip("U2", 51e-3, 30e-3, 1.1e-9)}
	var decaps []ssn.Decap
	for i, at := range [][2]float64{{9, 8}, {21, 40}, {39, 10}, {45, 38}, {15, 30}, {54, 12}} {
		decaps = append(decaps, ssn.Decap{
			Name: "C" + string(rune('1'+i)), At: geom.Point{X: at[0] * 1e-3, Y: at[1] * 1e-3},
			C: 100e-9, ESR: 20e-3, ESL: 1e-9,
		})
	}
	var iters, size int
	var tran time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := ssn.Build(board, vrm, chips, decaps)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			x, err := sys.Circuit.OPCtx(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			size = len(x)
		}
		b.StartTimer()
		t0 := time.Now()
		rep, err := sys.Run(50e-12, 6e-9, circuit.Trapezoidal)
		tran += time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		iters += rep.Result.Stats.NewtonIterations
	}
	b.ReportMetric(float64(iters)/float64(b.N), "newton_iters")
	b.ReportMetric(tran.Seconds()*1e3/float64(iters), "ms_per_newton_iter")
	b.ReportMetric(float64(size), "mna_size")
}

// BenchmarkAblationTesting — DESIGN.md §5: collocation vs Galerkin.
func BenchmarkAblationTesting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationTesting(context.Background(), 12)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.RelativeCDisagreement, "scheme_disagreement_%")
	}
}

// BenchmarkAblationToeplitz — DESIGN.md §5: kernel cache effectiveness.
func BenchmarkAblationToeplitz(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationToeplitz(context.Background(), 12)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.DirectEvals)/float64(r.CachedEvals), "eval_reduction_x")
	}
}

// BenchmarkAblationImages — DESIGN.md §5: image-series depth.
func BenchmarkAblationImages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationImages(context.Background(), 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RelErr[3]*100, "err_at_8_images_%")
	}
}

// BenchmarkAblationIntegrator — DESIGN.md §5: trapezoidal vs backward Euler.
func BenchmarkAblationIntegrator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationIntegrator(context.Background(), 12, 20)
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
		r, err := experiments.FosterMOR(context.Background(), 16, 37, 10e9)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.FullOrder), "full_order")
		b.ReportMetric(float64(r.TruncOrder), "trunc_order")
		b.ReportMetric(100*r.MaxErrBelowHalf, "err_below_fmax/2_%")
	}
}

// largePlane is the 32×32-cell, 50×40 mm three-port plane of the
// operator-path benchmarks, under the given operator mode.
func largePlane(operator string) *core.BoardSpec {
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

// BenchmarkAssembleOperator — DESIGN.md §5l: the BEM assembly of
// largePlane under toeplitz: the offset tables and the FFT operators built
// from them. The dense P and L are not part of it; B/op shows that they
// stay unbuilt. Short enough for the smoke gate.
func BenchmarkAssembleOperator(b *testing.B) {
	spec := largePlane("toeplitz")
	m, err := mesh.Grid(spec.BuildShape(), spec.MeshNx, spec.MeshNy)
	if err != nil {
		b.Fatal(err)
	}
	k, err := greens.NewKernel(greens.OverGround, spec.PlaneSepMM*1e-3, spec.EpsR, spec.NImages)
	if err != nil {
		b.Fatal(err)
	}
	opts := bem.DefaultOptions()
	opts.Operator = bem.OpToeplitz
	opts.SheetResistance, opts.ReturnSheetResistance = spec.SheetRes, spec.SheetRes
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bem.AssembleCtx(context.Background(), m, k, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(m.Cells)), "cells")
}

// BenchmarkExtractLargeMesh — DESIGN.md §5l: the FFT-accelerated operator
// solve path (Toeplitz matvec + projected CG) against the dense LU reduction
// at a 32×32-cell plane, where auto takes the operator path. The dense
// baseline is extracted once outside the timed loop; dense_over_cg_x is its
// wall time over the operator path's per-op time, and cap_dev_rel is the
// relative total-capacitance disagreement between the two paths. Skipped in smoke
// runs: the dense baseline alone takes several seconds.
func BenchmarkExtractLargeMesh(b *testing.B) {
	if os.Getenv("BENCH_SMOKE") == "1" {
		b.Skip("multi-second dense baseline; full bench runs only")
	}
	spec := largePlane
	t0 := time.Now()
	dense, err := spec("dense").ExtractCtx(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	denseSec := time.Since(t0).Seconds()
	var capDev float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := spec("toeplitz").ExtractCtx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		cd, ct := dense.Network.TotalCapacitance(), res.Network.TotalCapacitance()
		capDev = math.Abs(ct-cd) / math.Abs(cd)
	}
	b.ReportMetric(denseSec/(b.Elapsed().Seconds()/float64(b.N)), "dense_over_cg_x")
	b.ReportMetric(capDev, "cap_dev_rel")
}

// densePlane is a ~600-cell board (24×25 grid, 50×40 mm, 11 kept nodes)
// under the given operator mode.
func densePlane(operator string) *core.BoardSpec {
	return &core.BoardSpec{
		Name:       "dense plane",
		Shape:      core.ShapeSpec{Type: "rect", W: 50, H: 40},
		PlaneSepMM: 0.4,
		EpsR:       4.5,
		SheetRes:   0.0006,
		Operator:   operator,
		MeshNx:     24,
		MeshNy:     25,
		ExtraNodes: 8,
		Ports: []core.PortSpec{
			{Name: "U1", X: 40, Y: 30},
			{Name: "U2", X: 12, Y: 8},
			{Name: "VRM", X: 5, Y: 35},
		},
	}
}

// benchExtract extracts spec once per iteration and reports its cell count.
func benchExtract(b *testing.B, spec *core.BoardSpec) {
	var cells int
	for i := 0; i < b.N; i++ {
		res, err := spec.ExtractCtx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		cells = len(res.Mesh.Cells)
	}
	b.ReportMetric(float64(cells), "cells")
}

// BenchmarkExtractDense — DESIGN.md §5l: densePlane extracted on the dense
// path (Operator: dense), where the O(n³) reduction (Γ = YᵀY, one Γ_ii
// factor, C_red = Wᵀ·P⁻¹·W) leads the job time. Short enough for the smoke
// gate.
func BenchmarkExtractDense(b *testing.B) { benchExtract(b, densePlane("dense")) }

// BenchmarkExtractAuto — DESIGN.md §5l: the same board under auto, where
// the solve-path cost model picks the operator path; against
// BenchmarkExtractDense it records what that choice buys. Short enough for
// the smoke gate.
func BenchmarkExtractAuto(b *testing.B) { benchExtract(b, densePlane("")) }

// BenchmarkAblationMesh — DESIGN.md §5: mesh-density convergence of the
// first plane resonance.
func BenchmarkAblationMesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationMesh(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		finest := r.F0GHz[len(r.F0GHz)-1]
		b.ReportMetric(100*(finest/r.Target-1), "finest_vs_cavity_%")
	}
}
