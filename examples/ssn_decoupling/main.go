// SSN decoupling: the paper's flagship application (§6.2) — simulate
// simultaneous switching noise on a board-level power distribution network
// and quantify how decoupling capacitors reduce it. The full co-simulation
// couples the extracted plane network, package parasitics, and switching
// drivers at every time step.
package main

import (
	"context"
	"fmt"
	"log"

	"pdnsim"
)

func main() {
	board := pdnsim.SSNBoard{
		Shape:    pdnsim.RectShape(0, 0, 120e-3, 80e-3),
		PlaneSep: 0.5e-3,
		EpsR:     4.5,
		SheetRes: 0.6e-3,
		MeshNx:   18, MeshNy: 12,
		ExtraNodes: 10,
	}
	vrm := pdnsim.SSNVRM{At: pdnsim.Point{X: 8e-3, Y: 8e-3}, V: 3.3, R: 3e-3, L: 15e-9}
	chip := pdnsim.SSNChip{
		Name: "ASIC", At: pdnsim.Point{X: 90e-3, Y: 55e-3},
		Drivers: 16, Switching: 12, Vdd: 3.3,
		Pin: pdnsim.QFPPin, VddPins: 4,
		Kind:  pdnsim.SSNRampDriver,
		LoadC: 25e-12, Delay: 1e-9, Width: 4e-9,
	}

	scenarios := []struct {
		name   string
		decaps []pdnsim.SSNDecap
	}{
		{"no decoupling", nil},
		{"2 × 100 nF near the chip", []pdnsim.SSNDecap{
			{Name: "C1", At: pdnsim.Point{X: 78e-3, Y: 52e-3}, C: 100e-9, ESR: 15e-3, ESL: 0.8e-9},
			{Name: "C2", At: pdnsim.Point{X: 98e-3, Y: 45e-3}, C: 100e-9, ESR: 15e-3, ESL: 0.8e-9},
		}},
		{"2 × 100 nF far from the chip", []pdnsim.SSNDecap{
			{Name: "C1", At: pdnsim.Point{X: 20e-3, Y: 20e-3}, C: 100e-9, ESR: 15e-3, ESL: 0.8e-9},
			{Name: "C2", At: pdnsim.Point{X: 30e-3, Y: 65e-3}, C: 100e-9, ESR: 15e-3, ESL: 0.8e-9},
		}},
	}

	fmt.Println("SSN study: 12 of 16 drivers switching on one ASIC, 3.3 V rail")
	fmt.Printf("%-30s %14s %14s %14s\n", "scenario", "gnd bounce", "rail droop", "plane droop")
	for _, sc := range scenarios {
		sys, err := pdnsim.BuildSSN(board, vrm, []pdnsim.SSNChip{chip}, sc.decaps)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := sys.Run(0.025e-9, 8e-9, pdnsim.Trapezoidal)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-30s %11.0f mV %11.0f mV %11.0f mV\n",
			sc.name,
			rep.GroundBounce["ASIC"]*1e3,
			rep.RailDroop["ASIC"]*1e3,
			rep.PlaneDroop["ASIC"]*1e3)
	}
	fmt.Println("\nObservations (all paper §6.2 phenomena):")
	fmt.Println(" - decaps near the chip cut the board-level plane droop sharply;")
	fmt.Println(" - the same parts placed far away act through the plane's spreading")
	fmt.Println("   inductance and can even excite plane anti-resonances;")
	fmt.Println(" - die-level ground bounce barely improves: it is set by the package")
	fmt.Println("   pin inductance, which board decoupling cannot reach.")

	// Let the optimiser pick placements instead of guessing: greedy
	// frequency-domain selection against a PDN impedance mask (the paper's
	// "optimize the decoupling strategy" goal).
	candidates := []pdnsim.DecapCandidate{
		{At: pdnsim.Point{X: 78e-3, Y: 52e-3}, C: 100e-9, ESR: 15e-3, ESL: 0.8e-9},
		{At: pdnsim.Point{X: 98e-3, Y: 45e-3}, C: 100e-9, ESR: 15e-3, ESL: 0.8e-9},
		{At: pdnsim.Point{X: 100e-3, Y: 65e-3}, C: 100e-9, ESR: 15e-3, ESL: 0.8e-9},
		{At: pdnsim.Point{X: 20e-3, Y: 20e-3}, C: 100e-9, ESR: 15e-3, ESL: 0.8e-9},
		{At: pdnsim.Point{X: 30e-3, Y: 65e-3}, C: 100e-9, ESR: 15e-3, ESL: 0.8e-9},
		{At: pdnsim.Point{X: 60e-3, Y: 40e-3}, C: 100e-9, ESR: 15e-3, ESL: 0.8e-9},
	}
	opt, err := pdnsim.OptimizeDecaps(context.Background(), pdnsim.OptimizeSpec{
		Board:      board,
		VRM:        vrm,
		Observe:    chip.At,
		Candidates: candidates,
		TargetOhm:  2.5,
		FminHz:     1e7, FmaxHz: 5e8,
		NFreq:     30,
		MaxDecaps: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noptimizer: |Z(chip)| peak %.2f Ω bare → %.2f Ω with %d decaps (mask 2.5 Ω met: %v)\n",
		opt.PeakHistory[0], opt.PeakHistory[len(opt.PeakHistory)-1], len(opt.Chosen), opt.Met)
	for rank, idx := range opt.Chosen {
		c := candidates[idx]
		fmt.Printf("  pick %d: site (%.0f, %.0f) mm → peak %.2f Ω\n",
			rank+1, c.At.X*1e3, c.At.Y*1e3, opt.PeakHistory[rank+1])
	}
}
