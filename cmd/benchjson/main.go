// benchjson converts `go test -bench` output into a machine-readable
// benchmark trajectory file and optionally enforces a regression gate
// against an earlier run.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 3x ./... | \
//	    go run ./cmd/benchjson -label after -out BENCH_2026-08-06.json -append
//
// Each invocation parses the benchmark lines on stdin into one labelled run
// (name, iterations, ns/op, B/op, allocs/op, and any custom metrics such as
// the figure benches' RMS_%), and writes it to -out. With -append, existing
// runs in the file are kept and the new run is added, building the
// before/after trajectory the performance work is judged against.
//
// With -baseline FILE[:LABEL], the new run is compared benchmark by
// benchmark against the baseline run (the labelled run, or the last run in
// the file): any benchmark whose ns/op grew by more than the regression
// factor fails the invocation with a non-zero exit, which is how CI's
// bench-smoke step catches order-of-magnitude performance regressions
// without being tripped by shared-runner noise.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// regressionFactor is the gate for -baseline comparisons: a benchmark fails
// the gate when its ns/op exceeds the baseline's by more than this factor.
// 2× is deliberately loose — CI times two iterations (-benchtime 2x) on
// shared runners where 20–50% noise is routine, so the gate is tuned to
// catch real regressions (an accidental O(n³) path, a lost parallel
// dispatch) rather than scheduling jitter.
const regressionFactor = 2.0

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Run is one labelled benchmark session.
type Run struct {
	Label      string      `json:"label"`
	Date       string      `json:"date"`
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// File is the on-disk trajectory: ordered runs, oldest first.
type File struct {
	Runs []Run `json:"runs"`
}

func main() {
	label := flag.String("label", "run", "label for this benchmark run")
	out := flag.String("out", "", "output trajectory file (default: stdout)")
	appendRuns := flag.Bool("append", false, "keep existing runs in -out and append this one")
	baseline := flag.String("baseline", "", "trajectory file[:label] to enforce the regression gate against")
	flag.Parse()

	run, err := parseRun(*label)
	if err != nil {
		fatal(err)
	}
	if len(run.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin"))
	}

	// Resolve the baseline before writing -out: when they are the same
	// trajectory file, the gate must compare against the runs that were
	// there before this one, not against the run being appended.
	var base *Run
	if *baseline != "" {
		base, err = resolveBaseline(*baseline)
		if err != nil {
			fatal(err)
		}
	}

	var file File
	if *appendRuns && *out != "" {
		if prev, err := loadFile(*out); err == nil {
			file = *prev
		} else if !os.IsNotExist(err) {
			fatal(err)
		}
	}
	file.Runs = append(file.Runs, run)

	data, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}

	if base != nil {
		if err := checkRegression(*base, run); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(2)
}

func loadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// parseRun reads `go test -bench` output from stdin. Benchmark lines have
// the shape:
//
//	BenchmarkName-8   	 3	 9986151 ns/op	 1290672 B/op	 17 allocs/op	 2.563 RMS_%
//
// i.e. name, iteration count, then value/unit pairs. Non-benchmark lines
// (package headers, PASS/ok) are ignored.
func parseRun(label string) (Run, error) {
	run := Run{
		Label:      label,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass output through so the run stays readable
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "Benchmarking..." chatter, not a result line
		}
		b := Benchmark{
			// Strip the -GOMAXPROCS suffix so runs on different machines compare.
			Name:       strings.TrimPrefix(strings.SplitN(fields[0], "-", 2)[0], "Benchmark"),
			Iterations: iters,
		}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return run, fmt.Errorf("bad value %q in line %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				b.BytesPerOp = val
			case "allocs/op":
				b.AllocsPerOp = val
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit] = val
			}
		}
		run.Benchmarks = append(run.Benchmarks, b)
	}
	return run, sc.Err()
}

// resolveBaseline loads the baseline run from "file" or "file:label": the
// labelled run, or the last run in the file.
func resolveBaseline(spec string) (*Run, error) {
	path, wantLabel := spec, ""
	if i := strings.LastIndex(spec, ":"); i > 0 {
		path, wantLabel = spec[:i], spec[i+1:]
	}
	f, err := loadFile(path)
	if err != nil {
		return nil, err
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	base := f.Runs[len(f.Runs)-1]
	if wantLabel != "" {
		found := false
		for _, r := range f.Runs {
			if r.Label == wantLabel {
				base, found = r, true
			}
		}
		if !found {
			return nil, fmt.Errorf("%s: no run labelled %q", path, wantLabel)
		}
	}
	base.Label = base.Label + " @ " + path
	return &base, nil
}

// checkRegression reports every benchmark whose ns/op exceeds
// baseline·regressionFactor. Benchmarks present on only one side are
// skipped: the gate guards shared benchmarks, not coverage.
func checkRegression(base Run, run Run) error {
	baseNs := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseNs[b.Name] = b.NsPerOp
	}
	var failures []string
	for _, b := range run.Benchmarks {
		ref, ok := baseNs[b.Name]
		if !ok || ref <= 0 {
			continue
		}
		if b.NsPerOp > ref*regressionFactor {
			failures = append(failures,
				fmt.Sprintf("%s: %.3g ns/op vs baseline %.3g (%.2fx > %gx gate)",
					b.Name, b.NsPerOp, ref, b.NsPerOp/ref, regressionFactor))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("performance regression vs baseline %s:\n  %s",
			base.Label, strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks within %gx of baseline %s\n",
		len(run.Benchmarks), regressionFactor, base.Label)
	return nil
}
