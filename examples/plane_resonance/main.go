// Plane resonance: cross-validate the three independent plane models in
// this repository — BEM equivalent circuit, analytic cavity series, and the
// 2-D FDTD solver — on the first resonant mode of a plane pair.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/cmplx"

	"pdnsim"
)

const (
	side = 30e-3
	sep  = 0.5e-3
	epsR = 4.5

	// impulseWidth is the duration of the rectangular current kick that
	// rings the cavity: 30 ps ≈ 1/(10·f₁₀) for this 30 mm plane, short
	// enough to excite the first mode without shaping its spectrum.
	impulseWidth = 0.03e-9
)

func main() {
	fAnalytic := pdnsim.C0 / (2 * side * math.Sqrt(epsR))
	fmt.Printf("30×30 mm plane pair, %.1f mm dielectric εr=%.1f\n", sep*1e3, epsR)
	fmt.Printf("analytic (1,0) cavity mode: %.3f GHz\n\n", fAnalytic/1e9)
	ctx := context.Background()

	// 1. BEM equivalent circuit: |Zin| sweep at a corner port.
	mesh, err := pdnsim.GridMesh(pdnsim.RectShape(0, 0, side, side), 14, 14)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := mesh.AddPort("P", pdnsim.Point{X: 0, Y: 0}); err != nil {
		log.Fatal(err)
	}
	kern, err := pdnsim.NewKernel(pdnsim.OverGround, sep, epsR, 1)
	if err != nil {
		log.Fatal(err)
	}
	asm, err := pdnsim.AssembleCtx(ctx, mesh, kern, pdnsim.DefaultBEMOptions())
	if err != nil {
		log.Fatal(err)
	}
	nw, err := pdnsim.ExtractNetworkCtx(ctx, asm, pdnsim.ExtractOptions{ExtraNodes: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}
	fBEM := peakFrequency(fAnalytic, func(f float64) float64 {
		z, err := nw.Zin(0, 2*math.Pi*f)
		if err != nil {
			log.Fatal(err)
		}
		return cmplx.Abs(z)
	})

	// 2. Analytic cavity model at the same port.
	cav, err := pdnsim.NewCavity(side, side, sep, epsR)
	if err != nil {
		log.Fatal(err)
	}
	if err := cav.AddPort("P", 0.5e-3, 0.5e-3); err != nil {
		log.Fatal(err)
	}
	fCav := peakFrequency(fAnalytic, func(f float64) float64 {
		z, err := cav.Z(2 * math.Pi * f)
		if err != nil {
			log.Fatal(err)
		}
		return cmplx.Abs(z.At(0, 0))
	})

	// 3. FDTD ring-down spectroscopy.
	sim, err := pdnsim.NewFDTD(pdnsim.RectShape(0, 0, side, side), 48, 48, sep, epsR, 0)
	if err != nil {
		log.Fatal(err)
	}
	port, err := sim.AddPort("P", pdnsim.Point{X: 0, Y: 0}, 1e5, func(t float64) float64 {
		if t < impulseWidth {
			return 1e4
		}
		return 0
	})
	if err != nil {
		log.Fatal(err)
	}
	run, err := sim.Run(ctx, pdnsim.FDTDRunOptions{Dt: 0.9 * sim.MaxStableDt(), Tstop: 8e-9})
	if err != nil {
		log.Fatal(err)
	}
	fFDTD := dominantTone(run.Time, port.V, 0.6*fAnalytic, 1.4*fAnalytic)

	fmt.Printf("%-28s %10s %10s\n", "model", "f0 (GHz)", "vs analytic")
	for _, r := range []struct {
		name string
		f    float64
	}{
		{"BEM equivalent circuit", fBEM},
		{"cavity modal series", fCav},
		{"2-D FDTD ring-down", fFDTD},
	} {
		fmt.Printf("%-28s %10.3f %+9.1f%%\n", r.name, r.f/1e9, 100*(r.f/fAnalytic-1))
	}
	fmt.Println("\n(the cavity series and the FDTD grid share the ideal magnetic-wall" +
		" model and agree to numerical precision; the BEM extraction also captures" +
		" edge fringing fields, which pull its resonance a few percent lower)")
}

// peakFrequency locates the magnitude maximum of fn in a ±25 % window
// around the expected (1,0) mode, so all three models report the same mode
// (the degenerate (1,1) mode sits √2 higher and must stay outside).
func peakFrequency(fExpect float64, fn func(f float64) float64) float64 {
	best, bestMag := 0.0, 0.0
	for f := 0.75 * fExpect; f <= 1.25*fExpect; f += 0.005e9 {
		if m := fn(f); m > bestMag {
			best, bestMag = f, m
		}
	}
	return best
}

// dominantTone finds the strongest spectral component of a ring-down.
func dominantTone(t, v []float64, fLo, fHi float64) float64 {
	var mean float64
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	tw := t[len(t)-1]
	best, bestMag := 0.0, 0.0
	for f := fLo; f <= fHi; f += (fHi - fLo) / 300 {
		var re, im float64
		for i, x := range v {
			w := 0.5 * (1 - math.Cos(2*math.Pi*t[i]/tw))
			ph := 2 * math.Pi * f * t[i]
			re += (x - mean) * w * math.Cos(ph)
			im += (x - mean) * w * math.Sin(ph)
		}
		if m := math.Hypot(re, im); m > bestMag {
			best, bestMag = f, m
		}
	}
	return best
}
