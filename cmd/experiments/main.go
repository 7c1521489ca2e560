// Command experiments regenerates every figure and quantitative claim of
// the paper's evaluation section (§6). Run with no arguments to execute the
// full suite, or name specific experiments:
//
//	experiments [fig1] [ex1] [fig5] [fig7] [fig8] [ssn1] [ssn2] [ablations]
//
// Flags:
//
//	-data   also print the raw data series (for plotting)
//	-fast   use reduced mesh/frequency resolution (CI-sized)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pdnsim/internal/experiments"
)

var (
	printData = flag.Bool("data", false, "print raw data series for plotting")
	fast      = flag.Bool("fast", false, "reduced resolution (CI-sized)")
)

func main() {
	flag.Parse()
	names := flag.Args()
	if len(names) == 0 {
		names = []string{"fig1", "ex1", "fig5", "fig7", "fig8", "ssn1", "ssn2", "ablations"}
	}
	// SIGINT/SIGTERM cancel the running experiment, which stops at its next
	// context check and reports the cancellation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ok := true
	for _, n := range names {
		if !run(ctx, n) {
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func run(ctx context.Context, name string) bool {
	fmt.Printf("==== %s ====\n", name)
	t0 := time.Now()
	var err error
	switch name {
	case "fig1":
		err = fig1(ctx)
	case "ex1":
		err = ex1(ctx)
	case "fig5":
		err = fig5()
	case "fig7":
		err = fig7(ctx)
	case "fig8":
		err = fig8(ctx)
	case "ssn1":
		err = ssn1()
	case "ssn2":
		err = ssn2()
	case "ablations":
		err = ablations(ctx)
	default:
		err = fmt.Errorf("unknown experiment %q", name)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
		return false
	}
	fmt.Printf("(%s)\n\n", time.Since(t0).Round(time.Millisecond))
	return true
}

func fig1(ctx context.Context) error {
	nx, ny := 28, 20
	if *fast {
		nx, ny = 16, 12
	}
	r, err := experiments.Fig1SplitPlaneMesh(ctx, nx, ny)
	if err != nil {
		return err
	}
	fmt.Println("Paper Fig. 1 — split MCM power plane discretisation")
	fmt.Print(r.String())
	return nil
}

func ex1(ctx context.Context) error {
	n := 14
	if *fast {
		n = 10
	}
	r, err := experiments.Ex1LPatchResonance(ctx, n)
	if err != nil {
		return err
	}
	fmt.Println("Paper §6.1 example 1 — L-shaped patch resonances (equivalent circuit vs reference)")
	fmt.Print(r.String())
	if *printData {
		printSeries(r.Zin.Name, "f (GHz)", r.Zin.X, "|Zin| (Ω)", r.Zin.Y)
	}
	return nil
}

func fig5() error {
	r, err := experiments.Fig5CoupledMicrostrip()
	if err != nil {
		return err
	}
	fmt.Println("Paper Figs. 4–5 — coupled microstrip transient and crosstalk")
	fmt.Print(r.String())
	if *printData {
		printSeries("active near", "t (ns)", r.TimeNs, "V", r.ActiveNear)
		printSeries("active far", "t (ns)", r.TimeNs, "V", r.ActiveFar)
		printSeries("victim near", "t (ns)", r.TimeNs, "V", r.VictimNear)
		printSeries("victim far", "t (ns)", r.TimeNs, "V", r.VictimFar)
	}
	return nil
}

func fig7(ctx context.Context) error {
	nx, extra, nf := 16, 37, 120
	if *fast {
		nx, extra, nf = 12, 20, 40
	}
	r, err := experiments.Fig7HPPlaneSParams(ctx, nx, extra, nf)
	if err != nil {
		return err
	}
	fmt.Println("Paper Figs. 6–7 — HP test plane S-parameters")
	fmt.Print(r.String())
	if *printData {
		printSeries("|S21| equivalent circuit", "f (GHz)", r.FreqGHz, "dB", r.S21Equiv)
		printSeries("|S21| cavity reference", "f (GHz)", r.FreqGHz, "dB", r.S21Cavity)
	}
	return nil
}

func fig8(ctx context.Context) error {
	nx, extra := 16, 37
	if *fast {
		nx, extra = 12, 20
	}
	r, err := experiments.Fig8TransientVsFDTD(ctx, nx, extra)
	if err != nil {
		return err
	}
	fmt.Println("Paper Fig. 8 — port-2 transient, equivalent circuit vs FDTD")
	fmt.Print(r.String())
	if *printData {
		printSeries("V(port2) equivalent circuit", "t (ns)", r.TimeNs, "V", r.Port2Equiv)
		printSeries("V(port2) FDTD", "t (ns)", r.TimeNs, "V", r.Port2FDTD)
	}
	return nil
}

func ssn1() error {
	cfg := experiments.SSN1Config{}
	if *fast {
		cfg = experiments.SSN1Config{
			MeshNx: 14, MeshNy: 10,
			SwitchingCounts: []int{1, 4, 16},
			DecapCounts:     []int{0, 4},
			Tstop:           6e-9, Dt: 0.04e-9,
		}
	}
	r, err := experiments.SSN1Prelayout(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Paper §6.2 — pre-layout SSN study (7×10\" FR4, 16-driver chip, 30 mil planes)")
	fmt.Print(r.String())
	return nil
}

func ssn2() error {
	cfg := experiments.SSN2Config{}
	if *fast {
		cfg = experiments.SSN2Config{MeshNx: 18, MeshNy: 14, Chips: 12, Tstop: 5e-9, Dt: 0.05e-9}
	}
	r, err := experiments.SSN2Postlayout(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Paper §6.2 — post-layout system evaluation (26 chips, 10 mil planes)")
	fmt.Print(r.String())
	return nil
}

func ablations(ctx context.Context) error {
	fmt.Println("DESIGN.md §5 ablation studies")
	if r, err := experiments.AblationTesting(ctx, 0); err != nil {
		return err
	} else {
		fmt.Print(r.String())
	}
	if r, err := experiments.AblationToeplitz(ctx, 0); err != nil {
		return err
	} else {
		fmt.Print(r.String())
	}
	if r, err := experiments.AblationImages(ctx, 0); err != nil {
		return err
	} else {
		fmt.Print(r.String())
	}
	if r, err := experiments.AblationIntegrator(ctx, 12, 20); err != nil {
		return err
	} else {
		fmt.Print(r.String())
	}
	if r, err := experiments.AblationMesh(ctx); err != nil {
		return err
	} else {
		fmt.Print(r.String())
	}
	if r, err := experiments.FosterMOR(ctx, 12, 20, 10e9); err != nil {
		return err
	} else {
		fmt.Print(r.String())
	}
	return nil
}

func printSeries(name, xl string, x []float64, yl string, y []float64) {
	fmt.Printf("# %s\n# %s\t%s\n", name, xl, yl)
	for i := range x {
		fmt.Printf("%.6g\t%.6g\n", x[i], y[i])
	}
}
