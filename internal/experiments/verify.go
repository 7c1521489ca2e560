package experiments

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"

	"pdnsim/internal/bem"
	"pdnsim/internal/cavity"
	"pdnsim/internal/circuit"
	"pdnsim/internal/extract"
	"pdnsim/internal/fdtd"
	"pdnsim/internal/geom"
	"pdnsim/internal/greens"
	"pdnsim/internal/mat"
	"pdnsim/internal/mesh"
	"pdnsim/internal/sparam"
	"pdnsim/internal/tline"

	"pdnsim/internal/simerr"
)

// ---------------------------------------------------------------------------
// FIG1 — split MCM power plane discretisation (paper Fig. 1).
// ---------------------------------------------------------------------------

// Fig1Result reports the discretisation and extraction of the two
// complementary MCM power nets (3.3 V and 5 V) over a common ground with a
// 0.5 mm dielectric.
type Fig1Result struct {
	Net33, Net50       mesh.Stats
	TotalC33, TotalC50 float64 // extracted plane capacitance (F)
	Nodes33, Nodes50   int
}

// Fig1SplitPlaneMesh meshes and extracts both nets of a 60×50 mm split MCM
// plane (split at x = 35 mm with a 1 mm gap), each with its own supply pins.
func Fig1SplitPlaneMesh(ctx context.Context, nx, ny int) (*Fig1Result, error) {
	if nx <= 0 {
		nx = 28
	}
	if ny <= 0 {
		ny = 20
	}
	left, right := geom.SplitPlanes(60e-3, 50e-3, 35e-3, 1e-3)
	kern, err := greens.NewKernel(greens.OverGround, 0.5e-3, 4.5, 1)
	if err != nil {
		return nil, err
	}
	run := func(sh geom.Shape, ports []geom.Point) (mesh.Stats, float64, int, error) {
		b := sh.Bounds()
		m, err := mesh.Grid(sh, int(float64(nx)*b.W()/60e-3+0.5), ny)
		if err != nil {
			return mesh.Stats{}, 0, 0, err
		}
		for i, p := range ports {
			if _, err := m.AddPort(fmt.Sprintf("PIN%d", i+1), p); err != nil {
				return mesh.Stats{}, 0, 0, err
			}
		}
		asm, err := bem.AssembleCtx(ctx, m, kern, bem.DefaultOptions())
		if err != nil {
			return mesh.Stats{}, 0, 0, err
		}
		nw, err := extract.ExtractCtx(ctx, asm, extract.Options{ExtraNodes: 12})
		if err != nil {
			return mesh.Stats{}, 0, 0, err
		}
		return m.Stats(), nw.TotalCapacitance(), nw.NumNodes(), nil
	}
	res := &Fig1Result{}
	res.Net33, res.TotalC33, res.Nodes33, err = run(left, []geom.Point{
		{X: 5e-3, Y: 5e-3}, {X: 30e-3, Y: 45e-3}, {X: 15e-3, Y: 25e-3},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: 3.3 V net: %w", err)
	}
	res.Net50, res.TotalC50, res.Nodes50, err = run(right, []geom.Point{
		{X: 40e-3, Y: 5e-3}, {X: 55e-3, Y: 45e-3},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: 5 V net: %w", err)
	}
	return res, nil
}

// String renders the Fig. 1 table.
func (r *Fig1Result) String() string {
	rows := [][]string{
		{"VCC0 (3.3V)", fmt.Sprint(r.Net33.Cells), fmt.Sprint(r.Net33.Links),
			fmt.Sprint(r.Net33.Ports), fmt.Sprint(r.Nodes33), fmt.Sprintf("%.2f nF", r.TotalC33*1e9)},
		{"VCC1 (5V)", fmt.Sprint(r.Net50.Cells), fmt.Sprint(r.Net50.Links),
			fmt.Sprint(r.Net50.Ports), fmt.Sprint(r.Nodes50), fmt.Sprintf("%.2f nF", r.TotalC50*1e9)},
	}
	return Table([]string{"net", "cells", "links", "pins", "eq-ckt nodes", "plane C"}, rows)
}

// ---------------------------------------------------------------------------
// EX1 — L-shaped microstrip patch resonances (paper §6.1 example 1).
// ---------------------------------------------------------------------------

// Ex1Result compares the first two input-impedance resonances of an L-shaped
// patch between the extracted equivalent circuit and the FDTD reference
// (substituting for Mosig's full-wave solver).
type Ex1Result struct {
	F0GHz, F1GHz       float64 // equivalent circuit
	RefF0GHz, RefF1GHz float64 // FDTD reference
	Zin                Series  // |Zin(f)| of the equivalent circuit

	// The paper's reported values for its own L-patch (different absolute
	// dimensions; the comparison target is the relative deviation).
	PaperF0, PaperF1       float64
	PaperRefF0, PaperRefF1 float64
}

// ringdownImpulseWidth is the duration of the rectangular current kick used
// for FDTD ring-down spectroscopy: 20 ps keeps the excitation spectrum flat
// through ~10 GHz (first null at 50 GHz), covering every mode the L-patch
// comparison reads, while remaining many timesteps long at the CFL dt.
const ringdownImpulseWidth = 0.02e-9

// Ex1LPatchResonance extracts a 60×60 mm L-patch (30×30 mm notch) on a
// 1.57 mm εr 2.33 substrate and locates its first two resonances.
func Ex1LPatchResonance(ctx context.Context, n int) (*Ex1Result, error) {
	if n <= 0 {
		n = 14
	}
	shape := geom.LShape(60e-3, 60e-3, 30e-3, 30e-3)
	feed := geom.Point{X: 2e-3, Y: 2e-3}
	kern, err := greens.NewKernel(greens.Microstrip, 1.57e-3, 2.33, 30)
	if err != nil {
		return nil, err
	}
	m, err := mesh.Grid(shape, n, n)
	if err != nil {
		return nil, err
	}
	if _, err := m.AddPort("A", feed); err != nil {
		return nil, err
	}
	asm, err := bem.AssembleCtx(ctx, m, kern, bem.DefaultOptions())
	if err != nil {
		return nil, err
	}
	nw, err := extract.ExtractCtx(ctx, asm, extract.Options{ExtraNodes: 1 << 20})
	if err != nil {
		return nil, err
	}
	res := &Ex1Result{
		PaperF0: 1.02, PaperF1: 1.65, PaperRefF0: 0.99, PaperRefF1: 1.56,
	}
	var freqs, mags []float64
	for f := 0.3e9; f <= 4.5e9; f += 0.02e9 {
		if err := simerr.CheckCtx(ctx, "experiments: L-patch resonance"); err != nil {
			return nil, err
		}
		z, err := nw.Zin(0, 2*math.Pi*f)
		if err != nil {
			return nil, err
		}
		freqs = append(freqs, f/1e9)
		mags = append(mags, cmplx.Abs(z))
	}
	res.Zin = Series{Name: "|Zin| equivalent circuit", X: freqs, Y: mags}
	f0, f1 := topTwoPeaks(freqs, mags)
	if f1 == 0 {
		return nil, simerr.Tagf(simerr.ErrNonConvergence, "experiments: need two resonances, found fewer")
	}
	res.F0GHz, res.F1GHz = f0, f1

	// FDTD reference: ring-down spectroscopy of the same patch. The patch
	// sits at the air/dielectric interface; the 2-D solver is homogeneous,
	// so run it with the quasi-static effective permittivity of the
	// equivalent circuit (C_total ratio).
	epsEff := nw.TotalCapacitance() / (greens.Eps0 * shape.Area() / 1.57e-3)
	sim, err := fdtd.New(shape, 60, 60, 1.57e-3, epsEff, 0)
	if err != nil {
		return nil, err
	}
	// A near-open Thevenin port: the current impulse excites the cavity and
	// the subsequent ring-down decays at the open-circuit natural
	// frequencies — exactly the |Zin| peaks the equivalent circuit reports.
	port, err := sim.AddPort("A", feed, 1e5, func(t float64) float64 {
		if t < ringdownImpulseWidth {
			return 2e4
		}
		return 0
	})
	if err != nil {
		return nil, err
	}
	dt := 0.9 * sim.MaxStableDt()
	out, err := sim.Run(ctx, fdtd.RunOptions{Dt: dt, Tstop: 20e-9})
	if err != nil {
		return nil, err
	}
	res.RefF0GHz, res.RefF1GHz = ringdownPeaks(out.Time, port.V, 0.5e9, 4.5e9)
	return res, nil
}

// topTwoPeaks returns the two most prominent local maxima, ordered by
// abscissa (the modes the paper's example reports are the strongly excited
// ones, not every shallow ripple).
func topTwoPeaks(x, y []float64) (f0, f1 float64) {
	peaks := extract.FindPeaks(y)
	if len(peaks) == 0 {
		return 0, 0
	}
	// Rank by magnitude.
	for i := 0; i < len(peaks); i++ {
		for j := i + 1; j < len(peaks); j++ {
			if y[peaks[j]] > y[peaks[i]] {
				peaks[i], peaks[j] = peaks[j], peaks[i]
			}
		}
	}
	if len(peaks) == 1 {
		return extract.RefinePeak(x, y, peaks[0]), 0
	}
	a, b := peaks[0], peaks[1]
	if x[a] > x[b] {
		a, b = b, a
	}
	return extract.RefinePeak(x, y, a), extract.RefinePeak(x, y, b)
}

// ringdownPeaks returns the two strongest spectral peaks of a ring-down in
// [fLo, fHi], via mean-removed Hann-windowed single-bin DFTs.
func ringdownPeaks(t, v []float64, fLo, fHi float64) (f0, f1 float64) {
	sig := append([]float64{}, v...)
	var mean float64
	for _, x := range sig {
		mean += x
	}
	mean /= float64(len(sig))
	tw := t[len(t)-1]
	for i := range sig {
		w := 0.5 * (1 - math.Cos(2*math.Pi*t[i]/tw))
		sig[i] = (sig[i] - mean) * w
	}
	nf := 400
	mags := make([]float64, nf)
	freqs := make([]float64, nf)
	for k := 0; k < nf; k++ {
		f := fLo + (fHi-fLo)*float64(k)/float64(nf-1)
		freqs[k] = f
		var re, im float64
		for i, x := range sig {
			ph := 2 * math.Pi * f * t[i]
			re += x * math.Cos(ph)
			im += x * math.Sin(ph)
		}
		mags[k] = math.Hypot(re, im)
	}
	peaks := extract.FindPeaks(mags)
	// Rank peaks by magnitude, return the two lowest-frequency prominent
	// ones: sort peak indices by magnitude, take the top candidates, then
	// order by frequency.
	best := []int{}
	for _, p := range peaks {
		best = append(best, p)
	}
	// Selection sort by magnitude (small lists).
	for i := 0; i < len(best); i++ {
		for j := i + 1; j < len(best); j++ {
			if mags[best[j]] > mags[best[i]] {
				best[i], best[j] = best[j], best[i]
			}
		}
	}
	if len(best) == 0 {
		return 0, 0
	}
	if len(best) == 1 {
		return freqs[best[0]] / 1e9, 0
	}
	a, b := best[0], best[1]
	if freqs[a] > freqs[b] {
		a, b = b, a
	}
	return extract.RefinePeak(freqs, mags, a) / 1e9, extract.RefinePeak(freqs, mags, b) / 1e9
}

// String renders the Ex1 comparison.
func (r *Ex1Result) String() string {
	rows := [][]string{
		{"this repo (60 mm L-patch)", fmt.Sprintf("%.3f", r.F0GHz), fmt.Sprintf("%.3f", r.F1GHz),
			fmt.Sprintf("%.3f", r.RefF0GHz), fmt.Sprintf("%.3f", r.RefF1GHz),
			fmt.Sprintf("%+.1f%% / %+.1f%%", 100*(r.F0GHz/r.RefF0GHz-1), 100*(r.F1GHz/r.RefF1GHz-1))},
		{"paper (Mosig L-patch)", fmt.Sprintf("%.3f", r.PaperF0), fmt.Sprintf("%.3f", r.PaperF1),
			fmt.Sprintf("%.3f", r.PaperRefF0), fmt.Sprintf("%.3f", r.PaperRefF1),
			fmt.Sprintf("%+.1f%% / %+.1f%%", 100*(r.PaperF0/r.PaperRefF0-1), 100*(r.PaperF1/r.PaperRefF1-1))},
	}
	return Table([]string{"case", "f0 (GHz)", "f1 (GHz)", "ref f0", "ref f1", "deviation"}, rows)
}

// ---------------------------------------------------------------------------
// FIG5 — coupled microstrip transient and crosstalk (paper Figs. 4–5).
// ---------------------------------------------------------------------------

// Fig5Result carries the four waveforms of the paper's Fig. 5.
type Fig5Result struct {
	TimeNs                  []float64
	ActiveNear, ActiveFar   []float64
	VictimNear, VictimFar   []float64
	Z0Even, Z0Odd           float64
	DelayEvenNs, DelayOddNs float64
}

// Fig5CoupledMicrostrip simulates the Fig. 4 cross-section: two 6 mm strips
// separated 6 mm on a 5 mm εr 4.5 substrate, 0.3 m long, driven by the
// paper's 5 V / 0.3 ns / 1 ns pulse through 50 Ω into 50 Ω loads.
func Fig5CoupledMicrostrip() (*Fig5Result, error) {
	p, err := tline.Solve(tline.Geometry{
		Strips: []tline.Strip{{X: -6e-3, W: 6e-3}, {X: 6e-3, W: 6e-3}},
		H:      5e-3, EpsR: 4.5,
	})
	if err != nil {
		return nil, err
	}
	ze, zo, err := p.EvenOddImpedances()
	if err != nil {
		return nil, err
	}
	modal, err := p.Modal()
	if err != nil {
		return nil, err
	}
	const length = 0.3
	c := circuit.New()
	src := c.Node("src")
	an, af := c.Node("active_near"), c.Node("active_far")
	vn, vf := c.Node("victim_near"), c.Node("victim_far")
	if _, err := c.AddVSource("VS", src, circuit.Ground,
		circuit.Pulse{V1: 0, V2: 5, Rise: 0.3e-9, Fall: 0.3e-9, Width: 1e-9}); err != nil {
		return nil, err
	}
	if _, err := c.AddResistor("RS", src, an, 50); err != nil {
		return nil, err
	}
	for _, term := range []struct {
		name string
		node int
	}{{"RNV", vn}, {"RFA", af}, {"RFV", vf}} {
		if _, err := c.AddResistor(term.name, term.node, circuit.Ground, 50); err != nil {
			return nil, err
		}
	}
	if _, err := p.Attach(c, "T1", []int{an, vn}, circuit.Ground,
		[]int{af, vf}, circuit.Ground, length); err != nil {
		return nil, err
	}
	res, err := c.Tran(circuit.TranOptions{Dt: 20e-12, Tstop: 8e-9, Method: circuit.Trapezoidal})
	if err != nil {
		return nil, err
	}
	out := &Fig5Result{Z0Even: ze, Z0Odd: zo}
	for _, t := range res.Time {
		out.TimeNs = append(out.TimeNs, t*1e9)
	}
	out.ActiveNear = res.V(an)
	out.ActiveFar = res.V(af)
	out.VictimNear = res.V(vn)
	out.VictimFar = res.V(vf)
	out.DelayEvenNs = length / modal.Vel[0] * 1e9
	out.DelayOddNs = length / modal.Vel[1] * 1e9
	if out.DelayEvenNs < out.DelayOddNs {
		out.DelayEvenNs, out.DelayOddNs = out.DelayOddNs, out.DelayEvenNs
	}
	return out, nil
}

// String summarises the Fig. 5 run (peak values; series are plotted by
// cmd/experiments).
func (r *Fig5Result) String() string {
	peak := func(v []float64) (hi, lo float64) {
		hi, lo = math.Inf(-1), math.Inf(1)
		for _, x := range v {
			hi = math.Max(hi, x)
			lo = math.Min(lo, x)
		}
		return hi, lo
	}
	var rows [][]string
	for _, s := range []struct {
		name string
		v    []float64
	}{
		{"active near end", r.ActiveNear}, {"active far end", r.ActiveFar},
		{"victim near end", r.VictimNear}, {"victim far end", r.VictimFar},
	} {
		hi, lo := peak(s.v)
		rows = append(rows, []string{s.name, fmt.Sprintf("%+.3f", hi), fmt.Sprintf("%+.3f", lo)})
	}
	head := fmt.Sprintf("Zeven=%.1fΩ Zodd=%.1fΩ, modal delays %.2f/%.2f ns\n",
		r.Z0Even, r.Z0Odd, r.DelayEvenNs, r.DelayOddNs)
	return head + Table([]string{"waveform", "peak (V)", "trough (V)"}, rows)
}

// ---------------------------------------------------------------------------
// FIG7 — HP test plane S-parameters (paper Figs. 6–7).
// ---------------------------------------------------------------------------

// HP test-plane geometry (tungsten on 280 µm alumina, 5 probe pads on an
// 8 mm pitch; plane size chosen to place several cavity modes below 10 GHz
// as the paper's Fig. 7 shows).
const (
	hpW, hpH     = 20e-3, 20e-3
	hpSep        = 280e-6
	hpEpsR       = 9.6
	hpSheet      = 6e-3
	hpEffLossTan = 2e-3
)

func hpPorts() []struct {
	Name string
	P    geom.Point
} {
	return []struct {
		Name string
		P    geom.Point
	}{
		{"p1", geom.Point{X: 6e-3, Y: 14e-3}},
		{"p2", geom.Point{X: 14e-3, Y: 14e-3}},
		{"p3", geom.Point{X: 6e-3, Y: 6e-3}},
		{"p4", geom.Point{X: 10e-3, Y: 6e-3}},
		{"p5", geom.Point{X: 14e-3, Y: 6e-3}},
	}
}

// hpNetwork extracts the 42-node equivalent circuit of the HP test plane.
func hpNetwork(ctx context.Context, nx int, extra int) (*extract.Network, error) {
	if nx <= 0 {
		nx = 16
	}
	if extra <= 0 {
		extra = 37 // 5 ports + 37 interior = the paper's 42 nodes
	}
	m, err := mesh.Grid(geom.RectShape(0, 0, hpW, hpH), nx, nx)
	if err != nil {
		return nil, err
	}
	for _, p := range hpPorts() {
		if _, err := m.AddPort(p.Name, p.P); err != nil {
			return nil, err
		}
	}
	kern, err := greens.NewKernel(greens.OverGround, hpSep, hpEpsR, 1)
	if err != nil {
		return nil, err
	}
	opts := bem.DefaultOptions()
	opts.SheetResistance = hpSheet
	opts.ReturnSheetResistance = hpSheet
	asm, err := bem.AssembleCtx(ctx, m, kern, opts)
	if err != nil {
		return nil, err
	}
	return extract.ExtractCtx(ctx, asm, extract.Options{ExtraNodes: extra})
}

// Fig7Result compares |S21| of the equivalent circuit with the analytic
// cavity reference across 0.5–15 GHz.
type Fig7Result struct {
	FreqGHz         []float64
	S21Equiv        []float64 // dB
	S21Cavity       []float64 // dB
	S21FDTD         []float64 // dB, second independent reference (pulse + DFT)
	Nodes           int
	RMSdBLow        float64 // RMS dB deviation vs cavity below 10 GHz
	RMSdBHigh       float64 // RMS dB deviation vs cavity above 10 GHz
	MedianDBLow     float64 // median |Δ| vs cavity below 10 GHz (robust to resonance-shift spikes)
	MedianDBHigh    float64 // median |Δ| vs cavity above 10 GHz
	MedianDBLowFDTD float64 // median |Δ| vs FDTD below 10 GHz
}

// Fig7HPPlaneSParams regenerates Fig. 7.
func Fig7HPPlaneSParams(ctx context.Context, nx, extra, nfreq int) (*Fig7Result, error) {
	nw, err := hpNetwork(ctx, nx, extra)
	if err != nil {
		return nil, err
	}
	cav, err := cavity.New(hpW, hpH, hpSep, hpEpsR)
	if err != nil {
		return nil, err
	}
	cav.LossTan = hpEffLossTan
	for _, p := range hpPorts() {
		if err := cav.AddPort(p.Name, p.P.X, p.P.Y); err != nil {
			return nil, err
		}
	}
	if nfreq <= 0 {
		nfreq = 120
	}
	freqs := sparam.LinSpace(0.5e9, 15e9, nfreq)
	swEq, err := sparam.SweepZCtx(ctx, freqs, 50, nw.PortZCtx)
	if err != nil {
		return nil, err
	}
	swCav, err := sparam.SweepZCtx(ctx, freqs, 50, func(_ context.Context, omega float64) (*mat.CMatrix, error) {
		return cav.Z(omega)
	})
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{Nodes: nw.NumNodes()}
	_, dbEq := swEq.MagDBSeries(1, 0)
	_, dbCav := swCav.MagDBSeries(1, 0)
	var ssLo, ssHi float64
	var absLo, absHi []float64
	for i, f := range freqs {
		if err := simerr.CheckCtx(ctx, "experiments: Fig. 7"); err != nil {
			return nil, err
		}
		res.FreqGHz = append(res.FreqGHz, f/1e9)
		d := dbEq[i] - dbCav[i]
		if f < 10e9 {
			ssLo += d * d
			absLo = append(absLo, math.Abs(d))
		} else {
			ssHi += d * d
			absHi = append(absHi, math.Abs(d))
		}
	}
	res.S21Equiv = dbEq
	res.S21Cavity = dbCav
	if len(absLo) > 0 {
		res.RMSdBLow = math.Sqrt(ssLo / float64(len(absLo)))
		res.MedianDBLow = median(absLo)
	}
	if len(absHi) > 0 {
		res.RMSdBHigh = math.Sqrt(ssHi / float64(len(absHi)))
		res.MedianDBHigh = median(absHi)
	}
	// Second independent reference: S21 from an FDTD pulse run (matched
	// 50 Ω ports, single-bin DFTs of the port waveform against the incident
	// wave Vs/2).
	fdtdDB, err := hpFDTDS21(ctx, freqs)
	if err != nil {
		return nil, err
	}
	res.S21FDTD = fdtdDB
	var absLoF []float64
	for i, f := range freqs {
		if f < 10e9 {
			absLoF = append(absLoF, math.Abs(dbEq[i]-fdtdDB[i]))
		}
	}
	res.MedianDBLowFDTD = median(absLoF)
	return res, nil
}

// hpFDTDS21 runs the HP plane in FDTD with a broadband pulse and extracts
// |S21| in dB at the requested frequencies.
func hpFDTDS21(ctx context.Context, freqs []float64) ([]float64, error) {
	pulse := circuit.Pulse{V1: 0, V2: 1, Rise: 0.02e-9, Fall: 0.02e-9, Width: 0.03e-9}
	sim, err := fdtd.New(geom.RectShape(0, 0, hpW, hpH), 64, 64, hpSep, hpEpsR, 2*hpSheet)
	if err != nil {
		return nil, err
	}
	var p2 *fdtd.Port
	for i, p := range hpPorts() {
		var srcFn func(float64) float64
		if i == 0 {
			srcFn = pulse.At
		}
		port, err := sim.AddPort(p.Name, p.P, 50, srcFn)
		if err != nil {
			return nil, err
		}
		if i == 1 {
			p2 = port
		}
	}
	dt := 0.9 * sim.MaxStableDt()
	run, err := sim.Run(ctx, fdtd.RunOptions{Dt: dt, Tstop: 6e-9})
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(freqs))
	for k, f := range freqs {
		var v2re, v2im, vsre, vsim float64
		for i, t := range run.Time {
			c, s := math.Cos(2*math.Pi*f*t), math.Sin(2*math.Pi*f*t)
			v2 := p2.V[i]
			vs := pulse.At(t) / 2 // incident wave into the matched port
			v2re += v2 * c
			v2im += v2 * s
			vsre += vs * c
			vsim += vs * s
		}
		num := math.Hypot(v2re, v2im)
		den := math.Hypot(vsre, vsim)
		if den == 0 {
			out[k] = math.Inf(-1)
			continue
		}
		out[k] = 20 * math.Log10(num/den)
	}
	return out, nil
}

func median(v []float64) float64 {
	s := append([]float64{}, v...)
	for i := 0; i < len(s); i++ {
		for j := i + 1; j < len(s); j++ {
			if s[j] < s[i] {
				s[i], s[j] = s[j], s[i]
			}
		}
	}
	if len(s) == 0 {
		return 0
	}
	return s[len(s)/2]
}

// String summarises Fig. 7 agreement.
func (r *Fig7Result) String() string {
	return fmt.Sprintf(
		"HP test plane |S21| p1→p2, %d-node equivalent circuit vs references\n"+
			"vs cavity, below 10 GHz: RMS %.2f dB, median %.2f dB (paper: \"agreement quite good up to about 10 GHz\")\n"+
			"vs cavity, above 10 GHz: RMS %.2f dB, median %.2f dB (paper: \"simulated result shifted away ... systematic\")\n"+
			"vs FDTD,   below 10 GHz: median %.2f dB\n",
		r.Nodes, r.RMSdBLow, r.MedianDBLow, r.RMSdBHigh, r.MedianDBHigh, r.MedianDBLowFDTD)
}

// ---------------------------------------------------------------------------
// FIG8 — transient at port 2, equivalent circuit vs FDTD (paper Fig. 8).
// ---------------------------------------------------------------------------

// Fig8Result overlays the two transients of Fig. 8.
type Fig8Result struct {
	TimeNs     []float64
	Port2Equiv []float64
	Port2FDTD  []float64
	RMS        float64 // normalised RMS deviation
}

// Fig8TransientVsFDTD applies the paper's 5 V, 0.2 ns rise/fall, 1 ns pulse
// at port 1 with all five ports terminated in 50 Ω, and compares the port-2
// transient between the extracted equivalent circuit and the FDTD solver.
func Fig8TransientVsFDTD(ctx context.Context, nx, extra int) (*Fig8Result, error) {
	pulse := circuit.Pulse{V1: 0, V2: 5, Rise: 0.2e-9, Fall: 0.2e-9, Width: 1e-9}
	const tstop = 3e-9

	// Equivalent-circuit transient.
	nw, err := hpNetwork(ctx, nx, extra)
	if err != nil {
		return nil, err
	}
	c := circuit.New()
	ports, err := nw.Attach(c, "plane")
	if err != nil {
		return nil, err
	}
	src := c.Node("src")
	if _, err := c.AddVSource("VS", src, circuit.Ground, pulse); err != nil {
		return nil, err
	}
	if _, err := c.AddResistor("RS", src, ports[0], 50); err != nil {
		return nil, err
	}
	for i := 1; i < len(ports); i++ {
		if _, err := c.AddResistor(fmt.Sprintf("RT%d", i), ports[i], circuit.Ground, 50); err != nil {
			return nil, err
		}
	}
	dt := 2e-12
	tr, err := c.Tran(circuit.TranOptions{Dt: dt, Tstop: tstop, Method: circuit.Trapezoidal})
	if err != nil {
		return nil, err
	}
	equiv := tr.V(ports[1])

	// FDTD reference.
	sim, err := fdtd.New(geom.RectShape(0, 0, hpW, hpH), 60, 60, hpSep, hpEpsR, 2*hpSheet)
	if err != nil {
		return nil, err
	}
	var p2 *fdtd.Port
	for i, p := range hpPorts() {
		// Each port placement scans the whole 60×60 grid.
		if err := simerr.CheckCtx(ctx, "experiments: Fig. 8"); err != nil {
			return nil, err
		}
		var srcFn func(float64) float64
		if i == 0 {
			srcFn = pulse.At
		}
		port, err := sim.AddPort(p.Name, p.P, 50, srcFn)
		if err != nil {
			return nil, err
		}
		if i == 1 {
			p2 = port
		}
	}
	fdt := 0.9 * sim.MaxStableDt()
	fres, err := sim.Run(ctx, fdtd.RunOptions{Dt: fdt, Tstop: tstop})
	if err != nil {
		return nil, err
	}

	out := &Fig8Result{}
	for _, t := range tr.Time {
		out.TimeNs = append(out.TimeNs, t*1e9)
	}
	out.Port2Equiv = equiv
	out.Port2FDTD = resample(fres.Time, p2.V, tr.Time)
	out.RMS = rmsDiff(out.Port2Equiv, out.Port2FDTD)
	return out, nil
}

// String summarises Fig. 8 agreement.
func (r *Fig8Result) String() string {
	var peakE, peakF float64
	for i := range r.Port2Equiv {
		peakE = math.Max(peakE, math.Abs(r.Port2Equiv[i]))
		peakF = math.Max(peakF, math.Abs(r.Port2FDTD[i]))
	}
	return fmt.Sprintf(
		"HP test plane port-2 transient: equivalent circuit vs 2-D FDTD\n"+
			"peak |V2|: equivalent circuit %.3f V, FDTD %.3f V\n"+
			"normalised RMS deviation: %.1f%% (paper Fig. 8: \"good agreement again is evident\")\n",
		peakE, peakF, 100*r.RMS)
}
