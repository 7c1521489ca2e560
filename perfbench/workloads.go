package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"pdnsim/internal/checkpoint"
	"pdnsim/internal/core"
	"pdnsim/internal/serve"
)

// A run sets its workload up at least setupMinReps times, and up to
// setupMaxReps times while the set-ups so far took less than setupBudget;
// setup_s is the median, and the last set-up serves the measured window. A
// daemon without a pre-warm starts in well under a millisecond, so its
// median needs many samples to hold still; sweep-warm's pre-warm takes a
// third of a second and needs fewer.
const (
	setupMinReps = 5
	setupMaxReps = 15
	setupBudget  = 1500 * time.Millisecond
)

// moreSetups reports whether a run that has made the given set-ups makes
// another.
func moreSetups(setupNs []int64) bool {
	var total int64
	for _, ns := range setupNs {
		total += ns
	}
	return len(setupNs) < setupMinReps || (len(setupNs) < setupMaxReps && total < int64(setupBudget))
}

// sweepJobsPlanned bounds the sweep jobs one run can submit — far above
// what a window completes, so the plan never runs dry.
const sweepJobsPlanned = 4000

// workloads names the benchmark's workloads.
var workloads = map[string]bool{
	denseClass.name: true, operatorClass.name: true, sweepClass.name: true, "ssn-cosim": true,
}

// pass is one measured window of a workload and everything needed to report
// and check it.
type pass struct {
	setupNs   []int64
	start     time.Time
	end       time.Time
	wall      time.Duration
	attempted int
	okLatMS   []float64 // latency of every op that ended done
	failures  []string  // correctness violations
	failedOps []string  // ops not ending done
	shed      int

	// Daemon workloads.
	recs   []opRecord
	stats  [2]serve.Stats // at window start and end
	boards []core.BoardSpec
	keyFP  map[string]string // correlation keys of cache files → op keys

	// ssn-cosim.
	scen  []ssnScenario
	ssnSt []ssnStats
}

// plan is a daemon workload's generated inputs.
type plan struct {
	ops     []daemonOp
	callers int   // closed-loop clients
	boardOf []int // corpus index of each op's board
	sweeps  []sweepSpec
	warm    []daemonOp // sweep-warm set-up: extractions of the warm boards
	warmIdx []int
	corpus  []core.BoardSpec
}

// makePlan generates a daemon workload's inputs from the seed.
func makePlan(o runOpts) (*plan, error) {
	class := map[string]boardClass{denseClass.name: denseClass, operatorClass.name: operatorClass, sweepClass.name: sweepClass}[o.workload]
	corpus, err := class.corpus()
	if err != nil {
		return nil, err
	}
	p := &plan{corpus: corpus, callers: clients}
	if o.workload == denseClass.name {
		p.callers = 1
	}
	boardJSON := make([][]byte, len(corpus))
	for i := range corpus {
		boardJSON[i] = inputBytes(&corpus[i])
	}
	if o.workload != sweepClass.name {
		for _, i := range runOrder(o.seed, class.strata, class.perStratum) {
			p.ops = append(p.ops, daemonOp{body: jobRequest(boardJSON[i], nil), key: "board:" + corpus[i].Name})
			p.boardOf = append(p.boardOf, i)
		}
		return p, nil
	}
	warm, jobs := sweepPlan(o.seed, sweepJobsPlanned)
	for _, i := range warm {
		p.warm = append(p.warm, daemonOp{body: jobRequest(boardJSON[i], nil), key: "board:" + corpus[i].Name})
		p.warmIdx = append(p.warmIdx, i)
	}
	for _, sw := range jobs {
		sw := sw
		p.ops = append(p.ops, daemonOp{body: jobRequest(boardJSON[sw.Board], &sw), key: sweepKey(sw.FMin, sw.NF), sweep: true})
		p.boardOf = append(p.boardOf, sw.Board)
		p.sweeps = append(p.sweeps, sw)
	}
	return p, nil
}

// runDaemonPass sets a daemon workload up several times (see moreSetups)
// and measures one closed-loop window against the last set-up. A non-nil
// tracer instruments the daemon's hooks and filesystem for the whole pass.
func runDaemonPass(o runOpts, name string, seconds float64, tr *tracer) (*pass, error) {
	gold, err := loadGoldens(o.src, o.workload)
	if err != nil {
		return nil, err
	}
	var hooks serve.Hooks
	if tr != nil {
		hooks = tr.hooks()
		restore := checkpoint.SetFS(&timingFS{inner: checkpoint.OS(), t: tr})
		defer restore()
	}
	// The inputs are generated once, outside set-up timing: set-up is what a
	// deployment pays — the state directory, the daemon and, on sweep-warm,
	// the cache pre-warm.
	pl, err := makePlan(o)
	if err != nil {
		return nil, err
	}
	ps := &pass{}
	var d *daemon
	for k := 0; moreSetups(ps.setupNs); k++ {
		// Each set-up starts alone, from a collected heap.
		if d != nil {
			d.stop()
			os.RemoveAll(d.dir)
		}
		runtime.GC()
		t0 := now()
		if d, err = startDaemon(filepath.Join(o.work, fmt.Sprintf("%s-state-%d", name, k)), hooks); err != nil {
			return nil, err
		}
		if len(pl.warm) > 0 {
			recs, _ := d.closedLoop(pl.warm, time.Now().Add(time.Hour), clients)
			for j, r := range recs {
				if !r.ok() {
					d.stop()
					return nil, fmt.Errorf("sweep-warm set-up: warm board %d ended %q: %v %s", j, r.status.State, r.err, r.status.Error)
				}
				g := &gold.Boards[pl.warmIdx[j]]
				if err := checkExtraction(g, pl.corpus[pl.warmIdx[j]].Fingerprint(), r.status.CTotal, r.status.Nodes, r.status.Ports); err != nil {
					ps.failures = append(ps.failures, "set-up: "+err.Error())
				}
			}
		}
		ps.setupNs = append(ps.setupNs, since(t0))
	}

	// The window starts from a collected heap, so set-up garbage does not
	// decide where its GC cycles fall.
	runtime.GC()
	ps.stats[0] = d.srv.Stats()
	ps.start = now()
	recs, wall := d.closedLoop(pl.ops, ps.start.Add(time.Duration(seconds*float64(time.Second))), pl.callers)
	ps.end = now()
	ps.stats[1] = d.srv.Stats()
	d.stop()
	os.RemoveAll(d.dir)
	ps.recs, ps.wall, ps.attempted = recs, wall, len(recs)

	ps.keyFP = map[string]string{}
	seen := map[int]bool{}
	for _, r := range recs {
		i := pl.boardOf[r.input]
		b := pl.corpus[i]
		if !seen[i] {
			seen[i] = true
			ps.boards = append(ps.boards, b)
		}
		fp := b.Fingerprint()
		if !r.ok() {
			ps.failedOps = append(ps.failedOps, fmt.Sprintf("%s: state %q err %v %s", b.Name, r.status.State, r.err, r.status.Error))
			if r.shed {
				ps.shed++
			}
			continue
		}
		ps.okLatMS = append(ps.okLatMS, float64(r.latency)/1e6)
		g := &gold.Boards[i]
		if err := checkExtraction(g, fp, r.status.CTotal, r.status.Nodes, r.status.Ports); err != nil {
			ps.failures = append(ps.failures, err.Error())
		}
		if pl.ops[r.input].sweep {
			if err := checkSweep(g, pl.sweeps[r.input], r.touchstone); err != nil {
				ps.failures = append(ps.failures, err.Error())
			}
		} else {
			ps.keyFP["fp:"+fp] = r.key
		}
	}
	if o.workload == sweepClass.name {
		// The swept boards were extracted at set-up; they are the ones the
		// layer replay covers.
		ps.boards = nil
		for _, i := range pl.warmIdx {
			ps.boards = append(ps.boards, pl.corpus[i])
		}
	}
	return ps, nil
}

// runSSNPass generates the scenario order several times (see moreSetups)
// and runs scenarios back to back for the window (a single caller).
func runSSNPass(o runOpts, seconds float64, tr *tracer) (*pass, error) {
	gold, err := loadGoldens(o.src, "ssn-cosim")
	if err != nil {
		return nil, err
	}
	ps := &pass{}
	var order []int
	for moreSetups(ps.setupNs) {
		t0 := now()
		order = ssnRunOrder(o.seed)
		scen := make([]ssnScenario, len(order))
		for j, i := range order {
			scen[j] = ssnCorpusScenario(i)
		}
		ps.setupNs = append(ps.setupNs, since(t0))
		ps.scen = scen
	}
	ps.start = now()
	deadline := ps.start.Add(time.Duration(seconds * float64(time.Second)))
	var outs []ssnOutcome
	for j := 0; j < len(ps.scen) && time.Now().Before(deadline); j++ {
		// Each op starts from a collected heap, outside its timing: the
		// co-simulation's live set is a few MB against heavy Newton-step
		// churn, so without this the peak RSS records where GC cycles
		// happened to fall rather than the largest op.
		runtime.GC()
		t0 := now()
		out, st, err := runScenario(ps.scen[j], tr)
		lat := float64(since(t0)) / 1e6
		ps.attempted++
		ps.ssnSt = append(ps.ssnSt, st)
		outs = append(outs, out)
		if err != nil {
			ps.failedOps = append(ps.failedOps, fmt.Sprintf("%s: %v", ps.scen[j].Name, err))
			continue
		}
		ps.okLatMS = append(ps.okLatMS, lat)
	}
	ps.end = now()
	ps.wall = ps.end.Sub(ps.start)
	ps.scen = ps.scen[:ps.attempted]
	for j, out := range outs {
		if out.Bounce == nil {
			continue
		}
		if err := checkSSN(&gold.SSN[order[j]], out); err != nil {
			ps.failures = append(ps.failures, err.Error())
		}
	}
	return ps, nil
}

// runPass dispatches one pass of the run's workload.
func runPass(o runOpts, name string, seconds float64, tr *tracer) (*pass, error) {
	if !workloads[o.workload] {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.workload == "ssn-cosim" {
		return runSSNPass(o, seconds, tr)
	}
	return runDaemonPass(o, name, seconds, tr)
}

// endToEnd computes the user-visible metrics of a pass.
func (ps *pass) endToEnd() (map[string]metric, map[string]any) {
	lat := append([]float64(nil), ps.okLatMS...)
	sort.Float64s(lat)
	setup := make([]float64, len(ps.setupNs))
	for i, ns := range ps.setupNs {
		setup[i] = float64(ns) / 1e9
	}
	p, tv, beyond := tail(lat)
	m := map[string]metric{
		"setup_s":              {median(setup), "s"},
		"latency_p50_ms":       {pct(lat, 50), "ms"},
		"latency_tail_ms":      {tv, "ms"},
		"throughput_ops_per_s": {float64(len(lat)) / ps.wall.Seconds(), "1/s"},
		"peak_rss_mb":          {peakRSSMB(), "MB"},
	}
	detail := map[string]any{
		"tail_percentile": p, "tail_samples_beyond": beyond, "ops_done": len(lat),
		"attempted": ps.attempted, "failed_frac": ps.failedFrac(), "setup_s_each": setup,
		"wall_s": ps.wall.Seconds(), "shed_429": ps.shed,
	}
	return m, detail
}

func (ps *pass) failedFrac() float64 {
	if ps.attempted == 0 {
		return 1
	}
	return float64(len(ps.failedOps)) / float64(ps.attempted)
}

// finish folds a pass into the result line, printing any failures.
func (ps *pass) finish(metrics map[string]metric) *result {
	for _, f := range ps.failedOps {
		fmt.Fprintln(os.Stderr, "failed op:", f)
	}
	for _, f := range ps.failures {
		fmt.Fprintln(os.Stderr, "incorrect:", f)
	}
	return &result{
		Correct:   len(ps.failures) == 0 && ps.attempted > 0,
		Attempted: max(ps.attempted, 1),
		Failed:    len(ps.failedOps),
		Metrics:   metrics,
	}
}

// plainRun is the untraced run: end-to-end metrics only.
func plainRun(o runOpts) (*result, error) {
	ps, err := runPass(o, "plain", o.seconds, nil)
	if err != nil {
		return nil, err
	}
	m, detail := ps.endToEnd()
	info("detail", detail)
	return ps.finish(m), nil
}

// tracedRun splits the window into an untraced and a traced half, so the
// tracing overhead is measured within one process, then replays the run's
// inputs through the layers for the stage split and the per-core scaling.
func tracedRun(o runOpts) (*result, error) {
	half := o.seconds / 2
	plain, err := runPass(o, "plain", half, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	ps, err := runPass(o, "traced", half, tr)
	if err != nil {
		return nil, err
	}
	pm, _ := plain.endToEnd()
	tm, detail := ps.endToEnd()
	info("detail", detail)
	lm, err := layerMetrics(o, ps, tr)
	if err != nil {
		return nil, err
	}
	over := tm["latency_p50_ms"].Value - pm["latency_p50_ms"].Value
	lm["trace.overhead_ms"] = metric{over, "ms"}
	lm["trace.overhead_pct"] = metric{100 * over / pm["latency_p50_ms"].Value, "%"}
	info("trace_overhead", map[string]float64{
		"untraced_p50_ms": pm["latency_p50_ms"].Value, "traced_p50_ms": tm["latency_p50_ms"].Value,
		"untraced_ops_per_s": pm["throughput_ops_per_s"].Value, "traced_ops_per_s": tm["throughput_ops_per_s"].Value,
	})
	pres, res := plain.finish(nil), ps.finish(lm)
	res.Correct = res.Correct && pres.Correct
	res.Attempted += pres.Attempted
	res.Failed += pres.Failed
	return res, nil
}

// nan0 maps an undefined ratio to 0 for reporting.
func nan0(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
