// Command pdnextract runs the paper's extraction pipeline on a JSON board
// description: geometry → quadrilateral mesh → BEM assembly → quasi-static
// RLC equivalent circuit. Outputs a SPICE-style netlist of the equivalent
// circuit, and optionally Touchstone S-parameters of the port network.
//
// Usage:
//
//	pdnextract [-timeout 5m] [-netlist out.cir] [-touchstone out.sNp -fmin 0.1e9 -fmax 10e9 -nf 100] board.json
//
// Exit codes: 2 usage, 3 parse failure, 4 solve failure, 5 I/O failure,
// 6 cancelled/timeout, 7 partial results (some sweep points skipped).
//
// Long sweeps survive interruption: -checkpoint snapshots completed points
// periodically (and on SIGINT/SIGTERM/timeout), and -resume restores them so
// a killed run recomputes only what is missing. The extraction and every
// sweep point run supervised — retryable numerical failures get bounded
// retries with escalating perturbation, and a point that still fails is
// skipped (exit 7) instead of aborting the sweep.
//
// A minimal board description:
//
//	{
//	  "name": "demo plane",
//	  "shape": {"type": "rect", "w_mm": 50, "h_mm": 40},
//	  "plane_sep_mm": 0.4, "eps_r": 4.5, "sheet_res_ohm_sq": 0.0006,
//	  "mesh_nx": 20, "mesh_ny": 16, "extra_nodes": 12,
//	  "ports": [{"name": "U1", "x_mm": 40, "y_mm": 30},
//	            {"name": "VRM", "x_mm": 5, "y_mm": 5}]
//	}
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"pdnsim/internal/bem"
	"pdnsim/internal/checkpoint"
	"pdnsim/internal/cli"
	"pdnsim/internal/core"
	"pdnsim/internal/simerr"
	"pdnsim/internal/sparam"
	"pdnsim/internal/supervise"
)

func main() {
	netlistOut := flag.String("netlist", "", "write the equivalent circuit netlist to this file ('-' for stdout)")
	tsOut := flag.String("touchstone", "", "write port S-parameters in Touchstone format to this file")
	fmin := flag.Float64("fmin", 0.1e9, "sweep start frequency (Hz)")
	fmax := flag.Float64("fmax", 10e9, "sweep stop frequency (Hz)")
	nf := flag.Int("nf", 100, "sweep points")
	z0 := flag.Float64("z0", 50, "S-parameter reference impedance (Ω)")
	irdrop := flag.String("irdrop", "", "DC IR-drop analysis: comma-separated PORT=amps load currents plus optional ref=PORT supply entry (default: first port)")
	operator := flag.String("operator", "", "override the board's solve-path operator mode: auto, dense or toeplitz")
	timeout := flag.Duration("timeout", 0, "wall-clock limit for extraction and sweeps (0 = none); exceeding it exits 6")
	diagVerbose := flag.Bool("diag", false, "print the full numerical-trust trail (healthy margins included), not just warnings")
	ckptPath := flag.String("checkpoint", "", "snapshot completed sweep points to this file periodically and on interruption")
	ckptEvery := flag.Int("checkpoint-every", 0, fmt.Sprintf("sweep points between snapshots (default %d)", checkpoint.DefaultEvery))
	resume := flag.String("resume", "", "restore completed sweep points from this snapshot before sweeping")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pdnextract [flags] board.json")
		flag.PrintDefaults()
		os.Exit(cli.ExitUsage)
	}
	if (*ckptPath != "" || *resume != "") && *tsOut == "" {
		fmt.Fprintln(os.Stderr, "pdnextract: -checkpoint/-resume apply to the S-parameter sweep; add -touchstone to run one")
	}
	if *tsOut != "" {
		if err := sparam.ValidateRange(*fmin, *fmax, *nf); err != nil {
			cli.Fatal(os.Stderr, "pdnextract", err, cli.ExitUsage)
		}
	}
	// SIGINT/SIGTERM cancel the context: the sweep flushes a final snapshot
	// (when -checkpoint is set) and the run exits through the staged
	// cancellation code instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		cli.Fatal(os.Stderr, "pdnextract", err, cli.ExitIO)
	}
	spec, err := core.ParseBoard(data)
	if err != nil {
		cli.Fatal(os.Stderr, "pdnextract", err, cli.ExitParse)
	}
	if *operator != "" {
		spec.Operator = *operator
		if err := spec.Validate(); err != nil {
			cli.Fatal(os.Stderr, "pdnextract", err, cli.ExitUsage)
		}
	}
	res, supSt, err := spec.ExtractSupervisedCtx(ctx, supervise.Policy{})
	if err != nil {
		fatalSolve(err, *ckptPath)
	}
	if supSt.Attempts > 1 {
		fmt.Fprintf(os.Stderr, "pdnextract: extraction recovered on attempt %d (diagonal regularization %.3g)\n",
			supSt.Attempts, supSt.PerturbRel)
	}
	fmt.Fprintf(os.Stderr, "%s: %s → %d-node equivalent circuit (%d ports), C_total = %.3g nF\n",
		spec.Name, res.Mesh.Stats(), res.Network.NumNodes(), res.Network.NumPorts,
		res.Network.TotalCapacitance()*1e9)
	cli.PrintDiagnostics(os.Stderr, res.Diagnostics(), *diagVerbose)

	if *netlistOut != "" {
		nl := res.Network.Netlist(spec.Name)
		if *netlistOut == "-" {
			fmt.Print(nl)
		} else if err := os.WriteFile(*netlistOut, []byte(nl), 0o644); err != nil {
			cli.Fatal(os.Stderr, "pdnextract", err, cli.ExitIO)
		}
	}
	partial := false
	if *tsOut != "" {
		freqs := sparam.LinSpace(*fmin, *fmax, *nf)
		sw, statuses, err := sparam.SweepZSupervised(ctx, freqs, sparam.SweepOptions{
			Z0:         *z0,
			Checkpoint: checkpoint.Policy{Path: *ckptPath, Every: *ckptEvery},
			ResumeFrom: *resume,
		}, res.Network.PortZCtx)
		reportSkippedPoints(statuses)
		if err != nil && !errors.Is(err, simerr.ErrPartial) {
			fatalSolve(err, *ckptPath)
		}
		if err != nil {
			// Partial completion: the surviving points are valid, so the
			// Touchstone file is still written; the exit code says "partial".
			partial = true
			fmt.Fprintf(os.Stderr, "pdnextract: %s\n", cli.Describe(err))
		}
		ts, err := sw.Touchstone(spec.Name)
		if err != nil {
			fatalSolve(err, *ckptPath)
		}
		if err := os.WriteFile(*tsOut, []byte(ts), 0o644); err != nil {
			cli.Fatal(os.Stderr, "pdnextract", err, cli.ExitIO)
		}
		// Physics-invariant screen: the sweep already carries its passivity
		// and reciprocity margins plus the supervision trail (print before
		// re-running Verify — it rebuilds the trail from scratch); a gross
		// violation fails the run.
		cli.PrintDiagnostics(os.Stderr, sw.Diag, *diagVerbose)
		if verr := sw.Verify(); verr != nil {
			fatalSolve(verr, *ckptPath)
		}
	}
	if *irdrop != "" {
		if err := runIRDrop(ctx, res, *irdrop); err != nil {
			fatalSolve(err, *ckptPath)
		}
	}
	if partial {
		os.Exit(cli.ExitPartial)
	}
}

// reportSkippedPoints prints the per-point supervision outcomes worth a
// human's attention: skipped points and points that needed retries.
func reportSkippedPoints(statuses []sparam.PointStatus) {
	for _, st := range statuses {
		switch {
		case st.Err != nil:
			fmt.Fprintf(os.Stderr, "pdnextract: point %g Hz skipped after %d attempts: %v\n",
				st.Freq, st.Attempts, st.Err)
		case st.Attempts > 1:
			fmt.Fprintf(os.Stderr, "pdnextract: point %g Hz recovered on attempt %d (perturbation %.3g)\n",
				st.Freq, st.Attempts, st.PerturbRel)
		}
	}
}

// fatalSolve exits through the staged solve codes; a cancelled run with
// checkpointing enabled first tells the user how to pick the work back up.
func fatalSolve(err error, ckptPath string) {
	if ckptPath != "" && errors.Is(err, simerr.ErrCancelled) {
		fmt.Fprintf(os.Stderr, "pdnextract: checkpoint flushed; resume with -resume %s\n", ckptPath)
	}
	cli.Fatal(os.Stderr, "pdnextract", err, cli.SolveExitCode(err))
}

// runIRDrop solves the plane's DC resistive network for the requested load
// currents and reports the worst drop and current density.
func runIRDrop(ctx context.Context, res *core.Result, arg string) error {
	portCell := map[string]int{}
	for _, p := range res.Mesh.Ports {
		portCell[p.Name] = p.Cell
	}
	injections := map[int]float64{}
	ref := res.Mesh.Ports[0].Cell
	refName := res.Mesh.Ports[0].Name
	for _, item := range strings.Split(arg, ",") {
		kv := strings.SplitN(strings.TrimSpace(item), "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("bad -irdrop item %q (want PORT=amps or ref=PORT)", item)
		}
		if kv[0] == "ref" {
			cell, ok := portCell[kv[1]]
			if !ok {
				return fmt.Errorf("-irdrop references unknown supply port %q", kv[1])
			}
			ref, refName = cell, kv[1]
			continue
		}
		cell, ok := portCell[kv[0]]
		if !ok {
			return fmt.Errorf("-irdrop references unknown port %q", kv[0])
		}
		amps, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return fmt.Errorf("bad current in %q", item)
		}
		injections[cell] = amps
	}
	v, err := res.Assembly.DCPotential(ctx, injections, ref)
	if err != nil {
		return err
	}
	cur, err := res.Assembly.DCCurrents(v)
	if err != nil {
		return err
	}
	fmt.Printf("IR drop (supply reference: port %s):\n", refName)
	for _, p := range res.Mesh.Ports {
		fmt.Printf("  %-12s %8.3f mV\n", p.Name, v[p.Cell]*1e3)
	}
	fmt.Printf("  worst drop: %.3f mV, worst current density: %.1f A/m\n",
		bem.WorstIRDrop(v)*1e3, res.Assembly.WorstCurrentDensity(cur))
	return nil
}
