// Quickstart: extract a power/ground plane pair into an RLC equivalent
// circuit, inspect its impedance profile, and emit a SPICE netlist — the
// core flow of the DAC'98 paper in ~60 lines.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/cmplx"
	"strings"

	"pdnsim"
)

func main() {
	// A 50×40 mm plane pair: FR4, 0.4 mm separation, 1 oz copper.
	board := &pdnsim.BoardSpec{
		Name:       "quickstart plane",
		Shape:      pdnsim.ShapeSpec{Type: "rect", W: 50, H: 40},
		PlaneSepMM: 0.4,
		EpsR:       4.5,
		SheetRes:   0.6e-3,
		MeshNx:     16, MeshNy: 12,
		ExtraNodes: 10,
		Ports: []pdnsim.PortSpec{
			{Name: "CPU", X: 40, Y: 30},
			{Name: "VRM", X: 5, Y: 5},
		},
	}
	res, err := board.ExtractCtx(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh: %s\n", res.Mesh.Stats())
	fmt.Printf("equivalent circuit: %d nodes, %d ports, plane C = %.2f nF\n\n",
		res.Network.NumNodes(), res.Network.NumPorts, res.Network.TotalCapacitance()*1e9)

	// Impedance seen by the CPU across frequency: capacitive at low
	// frequency, first cavity resonance in the GHz range.
	fmt.Println("CPU-port input impedance:")
	for _, f := range []float64{1e6, 1e7, 1e8, 5e8, 1e9, 2e9, 3e9} {
		z, err := res.Network.Zin(0, 2*math.Pi*f)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %8.3g Hz   |Z| = %10.4g Ω   phase %6.1f°\n",
			f, cmplx.Abs(z), cmplx.Phase(z)*180/math.Pi)
	}

	// The equivalent circuit as a SPICE netlist (first lines).
	nl := res.Network.Netlist(board.Name)
	lines := strings.SplitN(nl, "\n", 12)
	fmt.Println("\nnetlist preview:")
	for _, l := range lines[:11] {
		fmt.Println("  " + l)
	}
	fmt.Println("  ...")
}
