package experiments

import (
	"fmt"
	"math"
	"math/cmplx"
	"time"

	"pdnsim/internal/bem"
	"pdnsim/internal/circuit"
	"pdnsim/internal/extract"
	"pdnsim/internal/geom"
	"pdnsim/internal/greens"
	"pdnsim/internal/mesh"

	"pdnsim/internal/simerr"
)

// The ablation studies quantify the design choices DESIGN.md §5 calls out.

// AblationTestingResult compares the two BEM testing schemes (paper §3.2
// discusses the speed/stability trade-off explicitly).
type AblationTestingResult struct {
	CollocC, GalerkinC    float64 // total plane capacitance (F)
	CollocT, GalerkinT    time.Duration
	RelativeCDisagreement float64
}

// AblationTesting assembles the same plane with collocation and Galerkin
// testing.
func AblationTesting(n int) (*AblationTestingResult, error) {
	if n <= 0 {
		n = 12
	}
	m, err := mesh.Grid(geom.RectShape(0, 0, 30e-3, 30e-3), n, n)
	if err != nil {
		return nil, err
	}
	k, err := greens.NewKernel(greens.OverGround, 0.4e-3, 4.5, 1)
	if err != nil {
		return nil, err
	}
	res := &AblationTestingResult{}
	run := func(scheme bem.TestingScheme) (float64, time.Duration, error) {
		opts := bem.DefaultOptions()
		opts.Testing = scheme
		t0 := time.Now()
		asm, err := bem.Assemble(m, k, opts)
		if err != nil {
			return 0, 0, err
		}
		c, err := asm.TotalCapacitance()
		return c, time.Since(t0), err
	}
	if res.CollocC, res.CollocT, err = run(bem.Collocation); err != nil {
		return nil, err
	}
	if res.GalerkinC, res.GalerkinT, err = run(bem.Galerkin); err != nil {
		return nil, err
	}
	res.RelativeCDisagreement = math.Abs(res.CollocC-res.GalerkinC) / res.GalerkinC
	return res, nil
}

// String renders the testing-scheme comparison.
func (r *AblationTestingResult) String() string {
	rows := [][]string{
		{"collocation", fmt.Sprintf("%.4g nF", r.CollocC*1e9), r.CollocT.Round(time.Microsecond).String()},
		{"galerkin", fmt.Sprintf("%.4g nF", r.GalerkinC*1e9), r.GalerkinT.Round(time.Microsecond).String()},
	}
	return Table([]string{"testing", "plane C", "assembly time"}, rows) +
		fmt.Sprintf("capacitance disagreement: %.2f%%\n", 100*r.RelativeCDisagreement)
}

// AblationToeplitzResult measures the kernel-evaluation savings of the
// translation-invariance cache.
type AblationToeplitzResult struct {
	CachedEvals, DirectEvals int
	CachedT, DirectT         time.Duration
	MaxEntryError            float64
}

// AblationToeplitz assembles from the offset tables and by the direct fill
// (bem.OpDirect).
func AblationToeplitz(n int) (*AblationToeplitzResult, error) {
	if n <= 0 {
		n = 12
	}
	m, err := mesh.Grid(geom.RectShape(0, 0, 30e-3, 30e-3), n, n)
	if err != nil {
		return nil, err
	}
	k, err := greens.NewKernel(greens.OverGround, 0.4e-3, 4.5, 1)
	if err != nil {
		return nil, err
	}
	fast := bem.DefaultOptions()
	slow := bem.DefaultOptions()
	slow.Operator = bem.OpDirect
	t0 := time.Now()
	af, err := bem.Assemble(m, k, fast)
	if err != nil {
		return nil, err
	}
	tf := time.Since(t0)
	t0 = time.Now()
	as, err := bem.Assemble(m, k, slow)
	if err != nil {
		return nil, err
	}
	ts := time.Since(t0)
	var maxErr float64
	scale := as.P.MaxAbs()
	for i := range af.P.Data {
		maxErr = math.Max(maxErr, math.Abs(af.P.Data[i]-as.P.Data[i])/scale)
	}
	return &AblationToeplitzResult{
		CachedEvals: af.KernelEvals, DirectEvals: as.KernelEvals,
		CachedT: tf, DirectT: ts, MaxEntryError: maxErr,
	}, nil
}

// String renders the Toeplitz comparison.
func (r *AblationToeplitzResult) String() string {
	return fmt.Sprintf(
		"Toeplitz cache: %d kernel evaluations (%.3g ms) vs %d direct (%.3g ms); max entry error %.2g\n",
		r.CachedEvals, float64(r.CachedT.Microseconds())/1e3,
		r.DirectEvals, float64(r.DirectT.Microseconds())/1e3, r.MaxEntryError)
}

// AblationImagesResult shows the microstrip image-series convergence on the
// extracted plane capacitance.
type AblationImagesResult struct {
	Images []int
	CTotal []float64
	RelErr []float64 // vs the deepest series
}

// AblationImages sweeps the image truncation.
func AblationImages(n int) (*AblationImagesResult, error) {
	if n <= 0 {
		n = 10
	}
	m, err := mesh.Grid(geom.RectShape(0, 0, 20e-3, 20e-3), n, n)
	if err != nil {
		return nil, err
	}
	counts := []int{1, 2, 4, 8, 16, 32, 64, 128}
	res := &AblationImagesResult{Images: counts}
	for _, ni := range counts {
		k, err := greens.NewKernel(greens.Microstrip, 0.5e-3, 9.6, ni)
		if err != nil {
			return nil, err
		}
		asm, err := bem.Assemble(m, k, bem.DefaultOptions())
		if err != nil {
			return nil, err
		}
		c, err := asm.TotalCapacitance()
		if err != nil {
			return nil, err
		}
		res.CTotal = append(res.CTotal, c)
	}
	ref := res.CTotal[len(res.CTotal)-1]
	for _, c := range res.CTotal {
		res.RelErr = append(res.RelErr, math.Abs(c-ref)/ref)
	}
	return res, nil
}

// String renders the image-convergence table.
func (r *AblationImagesResult) String() string {
	var rows [][]string
	for i, n := range r.Images {
		rows = append(rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.5g nF", r.CTotal[i]*1e9),
			fmt.Sprintf("%.2e", r.RelErr[i]),
		})
	}
	return Table([]string{"images", "plane C", "rel err"}, rows)
}

// AblationIntegratorResult compares the two transient schemes on the plane
// transient of Fig. 8 (paper §5.1: "both first and second order"): each is
// run at a coarse step and scored against a fine-step reference.
type AblationIntegratorResult struct {
	RMSTrapVsFDTD float64 // coarse trapezoidal vs fine reference
	RMSBEVsFDTD   float64 // coarse backward Euler vs fine reference
}

// AblationIntegrator reruns the Fig. 8 equivalent-circuit transient with
// both integrators at a deliberately coarse step (25 ps, ~12 points per
// resonance cycle) where the integration-order difference is visible, and
// compares each against a fine-step trapezoidal reference.
func AblationIntegrator(nx, extra int) (*AblationIntegratorResult, error) {
	nw, err := hpNetwork(nx, extra)
	if err != nil {
		return nil, err
	}
	run := func(dt float64, method circuit.Method) ([]float64, []float64, error) {
		pulse := circuit.Pulse{V1: 0, V2: 5, Rise: 0.2e-9, Fall: 0.2e-9, Width: 1e-9}
		c := circuit.New()
		ports, err := nw.Attach(c, "plane")
		if err != nil {
			return nil, nil, err
		}
		src := c.Node("src")
		if _, err := c.AddVSource("VS", src, circuit.Ground, pulse); err != nil {
			return nil, nil, err
		}
		if _, err := c.AddResistor("RS", src, ports[0], 50); err != nil {
			return nil, nil, err
		}
		for i := 1; i < len(ports); i++ {
			if _, err := c.AddResistor(fmt.Sprintf("RT%d", i), ports[i], circuit.Ground, 50); err != nil {
				return nil, nil, err
			}
		}
		tr, err := c.Tran(circuit.TranOptions{Dt: dt, Tstop: 3e-9, Method: method})
		if err != nil {
			return nil, nil, err
		}
		return tr.Time, tr.V(ports[1]), nil
	}
	tRef, ref, err := run(2e-12, circuit.Trapezoidal)
	if err != nil {
		return nil, err
	}
	const coarse = 25e-12
	tTr, trap, err := run(coarse, circuit.Trapezoidal)
	if err != nil {
		return nil, err
	}
	tBe, be, err := run(coarse, circuit.BackwardEuler)
	if err != nil {
		return nil, err
	}
	refOnTr := resample(tRef, ref, tTr)
	refOnBe := resample(tRef, ref, tBe)
	return &AblationIntegratorResult{
		RMSTrapVsFDTD: rmsDiff(trap, refOnTr),
		RMSBEVsFDTD:   rmsDiff(be, refOnBe),
	}, nil
}

// String renders the integrator comparison.
func (r *AblationIntegratorResult) String() string {
	return fmt.Sprintf("integration order at 25 ps step (Fig. 8 transient, vs 2 ps reference): trapezoidal %.1f%% RMS, backward Euler %.1f%% RMS\n",
		100*r.RMSTrapVsFDTD, 100*r.RMSBEVsFDTD)
}

// FosterMORResult summarises the exact Foster model-order reduction of the
// HP test plane's driving-point impedance (DESIGN.md §5b extension).
type FosterMORResult struct {
	FullOrder, TruncOrder int
	// MaxErrBelowHalf is the worst |ΔZ| below fmax/2, normalised by the
	// band-median |Z| of the full model.
	MaxErrBelowHalf float64
}

// FosterMOR builds the HP plane network, synthesises full and truncated
// Foster chains at port 1, and scores the truncation against the network.
func FosterMOR(nx, extra int, fmax float64) (*FosterMORResult, error) {
	nw, err := hpNetwork(nx, extra)
	if err != nil {
		return nil, err
	}
	full, err := nw.FosterModel(0, 0)
	if err != nil {
		return nil, err
	}
	trunc, err := nw.FosterModel(0, fmax)
	if err != nil {
		return nil, err
	}
	res := &FosterMORResult{FullOrder: full.Order(), TruncOrder: trunc.Order()}
	// Normalise by the band-median magnitude: a pointwise relative error
	// explodes at the impedance nulls between resonances.
	var mags []float64
	var absErr []float64
	for f := 0.2e9; f <= fmax/2; f += 0.2e9 {
		omega := 2 * math.Pi * f
		zf := full.Eval(omega)
		zt := trunc.Eval(omega)
		mags = append(mags, cmplx.Abs(zf))
		absErr = append(absErr, cmplx.Abs(zt-zf))
	}
	med := median(mags)
	if med > 0 {
		for _, e := range absErr {
			if v := e / med; v > res.MaxErrBelowHalf {
				res.MaxErrBelowHalf = v
			}
		}
	}
	return res, nil
}

// String renders the MOR summary.
func (r *FosterMORResult) String() string {
	return fmt.Sprintf("Foster MOR: order %d → %d, worst |Z| error below fmax/2: %.2f%%\n",
		r.FullOrder, r.TruncOrder, 100*r.MaxErrBelowHalf)
}

// AblationMeshResult tracks resonance convergence with mesh density.
type AblationMeshResult struct {
	Mesh   []int
	F0GHz  []float64
	Target float64 // analytic cavity f10
}

// AblationMesh sweeps the BEM grid and locates the first cavity resonance of
// a 20 mm square plane.
func AblationMesh() (*AblationMeshResult, error) {
	side := 20e-3
	res := &AblationMeshResult{
		Mesh:   []int{6, 8, 12, 16},
		Target: greens.C0 / (2 * side * math.Sqrt(4.5)) / 1e9,
	}
	for _, n := range res.Mesh {
		m, err := mesh.Grid(geom.RectShape(0, 0, side, side), n, n)
		if err != nil {
			return nil, err
		}
		if _, err := m.AddPort("P", geom.Point{}); err != nil {
			return nil, err
		}
		k, err := greens.NewKernel(greens.OverGround, 0.5e-3, 4.5, 1)
		if err != nil {
			return nil, err
		}
		asm, err := bem.Assemble(m, k, bem.DefaultOptions())
		if err != nil {
			return nil, err
		}
		nw, err := extract.Extract(asm, extract.Options{ExtraNodes: 1 << 20})
		if err != nil {
			return nil, err
		}
		var fs, mags []float64
		for f := 2.0e9; f <= 5.5e9; f += 0.03e9 {
			z, err := nw.Zin(0, 2*math.Pi*f)
			if err != nil {
				return nil, err
			}
			fs = append(fs, f/1e9)
			mags = append(mags, cmplx.Abs(z))
		}
		peaks := extract.FindPeaks(mags)
		if len(peaks) == 0 {
			return nil, simerr.Tagf(simerr.ErrNonConvergence, "experiments: no resonance at mesh %d", n)
		}
		res.F0GHz = append(res.F0GHz, extract.RefinePeak(fs, mags, peaks[0]))
	}
	return res, nil
}

// String renders the mesh-convergence table.
func (r *AblationMeshResult) String() string {
	var rows [][]string
	for i, n := range r.Mesh {
		rows = append(rows, []string{
			fmt.Sprintf("%d×%d", n, n),
			fmt.Sprintf("%.3f", r.F0GHz[i]),
			fmt.Sprintf("%+.1f%%", 100*(r.F0GHz[i]/r.Target-1)),
		})
	}
	return fmt.Sprintf("first cavity mode vs mesh (analytic %.3f GHz):\n", r.Target) +
		Table([]string{"mesh", "f0 (GHz)", "error"}, rows)
}
