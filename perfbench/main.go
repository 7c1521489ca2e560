// Command perfbench is the repository benchmark: seeded workloads over the
// extraction daemon and the SSN co-simulation, each checked against
// committed goldens, reporting end-to-end metrics by name and unit (or,
// with -trace 1, per-layer metrics from an instrumented run).
//
// Usage (from the repository root, through perfbench/run.sh, which builds
// this package first):
//
//	perfbench -workload extract-dense -seed 1 -seconds 25 -trace 0
//	perfbench -write-goldens
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOpts is one invocation.
type runOpts struct {
	workload string
	seed     uint64
	seconds  float64
	src      string // the benchmark's source directory (goldens live here)
	work     string // scratch directory for daemon state directories
	traces   string // where the traced run writes its spans
}

func main() {
	workload := flag.String("workload", "", "extract-dense | extract-operator | sweep-warm | ssn-cosim")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 25, "measured window (s)")
	trace := flag.Int("trace", 0, "1 = instrumented run reporting per-layer metrics")
	src := flag.String("src", "perfbench", "benchmark source directory")
	work := flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory")
	traces := flag.String("traces", filepath.Join(".bench_build", "traces"), "trace output directory")
	regen := flag.Bool("write-goldens", false, "regenerate the committed goldens (all, or -workload's) and exit")
	flag.Parse()

	if *regen {
		if err := writeGoldens(*src, *workload); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("bad -seconds %g or -trace %d", *seconds, *trace))
	}
	o := runOpts{workload: *workload, seed: *seed, seconds: *seconds, src: *src, traces: *traces,
		work: filepath.Join(*work, fmt.Sprintf("%s-%d", *workload, os.Getpid()))}
	defer os.RemoveAll(o.work)

	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(o)
	} else {
		res, err = plainRun(o)
	}
	if err != nil {
		os.RemoveAll(o.work)
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// info prints a labelled JSON detail line (never the last line).
func info(label string, v any) {
	b, _ := json.Marshal(v)
	fmt.Printf("%s %s\n", label, b)
}
