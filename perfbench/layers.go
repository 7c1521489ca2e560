package main

// Per-layer metrics of the traced run: the daemon's spans and counters, a
// library replay of the run's boards for the mesh / BEM / reduction split,
// and a replay at GOMAXPROCS 1 and 2 for per-core scaling.

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"pdnsim/internal/bem"
	"pdnsim/internal/circuit"
	"pdnsim/internal/core"
	"pdnsim/internal/extract"
	"pdnsim/internal/geom"
	"pdnsim/internal/greens"
	"pdnsim/internal/mesh"
	"pdnsim/internal/ssn"
)

// replayCap bounds the boards replayed through the library for the stage
// split; scalingCap bounds the boards (or scenarios) timed at one and two
// cores. Runs cycle through cost strata, so the first few inputs already
// span the workload's size range.
const (
	replayCap  = 6
	scalingCap = 2
)

// stageTimes is one board's library replay.
type stageTimes struct {
	meshNs, bemNs, reduceNs int64
	kernelEvals             int
}

// kernelOf mirrors the daemon's kernel and assembly options for a board.
func kernelOf(b *core.BoardSpec) (*greens.Kernel, bem.Options, error) {
	mode := greens.OverGround
	if b.Kernel == "microstrip" {
		mode = greens.Microstrip
	}
	k, err := greens.NewKernel(mode, b.PlaneSepMM*1e-3, b.EpsR, b.NImages)
	opts := bem.DefaultOptions()
	if b.Testing == "galerkin" {
		opts.Testing = bem.Galerkin
	}
	switch b.Operator {
	case "dense":
		opts.Operator = bem.OpDense
	case "toeplitz":
		opts.Operator = bem.OpToeplitz
	}
	opts.SheetResistance = b.SheetRes
	opts.ReturnSheetResistance = b.SheetRes
	return k, opts, err
}

// meshOf meshes a board and places its ports.
func meshOf(b *core.BoardSpec) (*mesh.Mesh, error) {
	nx, ny := b.MeshNx, b.MeshNy
	if nx <= 0 {
		nx = 16
	}
	if ny <= 0 {
		ny = 16
	}
	m, err := mesh.Grid(b.BuildShape(), nx, ny)
	if err != nil {
		return nil, err
	}
	for _, p := range b.Ports {
		if _, err := m.AddPort(p.Name, geom.Point{X: p.X * 1e-3, Y: p.Y * 1e-3}); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// replayBoard runs one board through mesh.Grid/AddPort → bem.AssembleCtx →
// extract.ExtractCtx, timing each stage.
func replayBoard(b *core.BoardSpec) (stageTimes, error) {
	var st stageTimes
	ctx := context.Background()
	t0 := now()
	m, err := meshOf(b)
	st.meshNs = since(t0)
	if err != nil {
		return st, err
	}
	k, opts, err := kernelOf(b)
	if err != nil {
		return st, err
	}
	t1 := now()
	asm, err := bem.AssembleCtx(ctx, m, k, opts)
	st.bemNs = since(t1)
	if err != nil {
		return st, err
	}
	st.kernelEvals = asm.KernelEvals
	t2 := now()
	_, err = extract.ExtractCtx(ctx, asm, extract.Options{ExtraNodes: b.ExtraNodes})
	st.reduceNs = since(t2)
	return st, err
}

// scenarioBoard expresses an SSN scenario's plane as the board description
// ssn.Build extracts internally (same stackup, mesh, kernel and ports).
func scenarioBoard(sc ssnScenario) core.BoardSpec {
	b := core.BoardSpec{
		Name: sc.Name, Shape: core.ShapeSpec{Type: "rect", W: sc.WMM, H: sc.HMM},
		PlaneSepMM: sc.PlaneSepMM, EpsR: 4.5, SheetRes: 0.6e-3,
		MeshNx: sc.MeshNx, MeshNy: sc.MeshNy, ExtraNodes: sc.ExtraNodes, NImages: 1,
		Ports: []core.PortSpec{{Name: "VRM", X: sc.VRM[0], Y: sc.VRM[1]}},
	}
	for _, c := range sc.Chips {
		b.Ports = append(b.Ports, core.PortSpec{Name: "CHIP_" + c.Name, X: c.At[0], Y: c.At[1]})
	}
	for i, d := range sc.Decaps {
		b.Ports = append(b.Ports, core.PortSpec{Name: fmt.Sprintf("DECAP_C%d", i+1), X: d[0], Y: d[1]})
	}
	return b
}

// withProcs runs fn with GOMAXPROCS set to p.
func withProcs(p int, fn func() error) error {
	prev := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(prev)
	return fn()
}

// parallelEff times fn at one and two cores: t₁ / (2·t₂), 1 for perfect
// scaling and ½ for none.
func parallelEff(fn func() (int64, error)) (float64, error) {
	var t1, t2 int64
	if err := withProcs(1, func() (err error) { t1, err = fn(); return }); err != nil {
		return 0, err
	}
	if err := withProcs(2, func() (err error) { t2, err = fn(); return }); err != nil {
		return 0, err
	}
	return float64(t1) / (2 * float64(t2)), nil
}

// stageScaling measures bem and extract scaling over the largest boards.
func stageScaling(boards []core.BoardSpec) (bemEff, extEff float64, err error) {
	bs := append([]core.BoardSpec(nil), boards...)
	sort.SliceStable(bs, func(a, b int) bool { return bs[a].MeshNx*bs[a].MeshNy > bs[b].MeshNx*bs[b].MeshNy })
	bs = bs[:min(scalingCap, len(bs))]
	ctx := context.Background()
	bemEff, err = parallelEff(func() (int64, error) {
		var total int64
		for i := range bs {
			m, err := meshOf(&bs[i])
			if err != nil {
				return 0, err
			}
			k, opts, err := kernelOf(&bs[i])
			if err != nil {
				return 0, err
			}
			t0 := now()
			if _, err := bem.AssembleCtx(ctx, m, k, opts); err != nil {
				return 0, err
			}
			total += since(t0)
		}
		return total, nil
	})
	if err != nil {
		return 0, 0, err
	}
	asms := make([]*bem.Assembly, len(bs))
	for i := range bs {
		m, err := meshOf(&bs[i])
		if err != nil {
			return 0, 0, err
		}
		k, opts, err := kernelOf(&bs[i])
		if err != nil {
			return 0, 0, err
		}
		if asms[i], err = bem.AssembleCtx(ctx, m, k, opts); err != nil {
			return 0, 0, err
		}
	}
	extEff, err = parallelEff(func() (int64, error) {
		var total int64
		for i, a := range asms {
			t0 := now()
			if _, err := extract.ExtractCtx(ctx, a, extract.Options{ExtraNodes: bs[i].ExtraNodes}); err != nil {
				return 0, err
			}
			total += since(t0)
		}
		return total, nil
	})
	return bemEff, extEff, err
}

// circuitScaling times the transients of the first scenarios at one and two
// cores (each run on a freshly built system).
func circuitScaling(scen []ssnScenario) (float64, error) {
	scen = scen[:min(scalingCap, len(scen))]
	return parallelEff(func() (int64, error) {
		var total int64
		for _, sc := range scen {
			b, vrm, chips, decaps := sc.system()
			sys, err := ssn.Build(b, vrm, chips, decaps)
			if err != nil {
				return 0, err
			}
			t0 := now()
			if _, err := sys.Run(ssnDt, ssnTstop, circuit.Trapezoidal); err != nil {
				return 0, err
			}
			total += since(t0)
		}
		return total, nil
	})
}

// meanDurMS is the mean duration of the spans named name, in ms.
func meanDurMS(spans []span, name string) float64 {
	var s int64
	n := 0
	for _, sp := range spans {
		if sp.Name == name {
			s += sp.dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return ms(s) / float64(n)
}

// layerMetrics computes every per-layer metric of a traced pass. Layers a
// workload leaves idle report 0.
func layerMetrics(o runOpts, ps *pass, tr *tracer) (map[string]metric, error) {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{nan0(v), unit} }
	jobs := float64(max(ps.attempted, 1))
	daemon := o.workload != "ssn-cosim"

	// Job-level spans from the daemon's own stamps, then correlation.
	keyToJob := map[string]string{}
	var queueMS, runMS []float64
	hits := 0
	for _, r := range ps.recs {
		id := r.status.ID
		if id == "" {
			continue
		}
		keyToJob[r.key] = id
		sub, start, fin, err := r.status.stamps()
		if err != nil {
			continue
		}
		tr.add("job", "", id, r.post, fin, 0)
		tr.add("serve.queue", "", id, sub, start, 0)
		tr.add("serve.run", "", id, start, fin, 0)
		queueMS = append(queueMS, float64(start.Sub(sub))/1e6)
		runMS = append(runMS, float64(fin.Sub(start))/1e6)
		if r.status.CacheHit {
			hits++
		}
	}
	for fp, key := range ps.keyFP {
		if id, ok := keyToJob[key]; ok {
			keyToJob[fp] = id
		}
	}
	tr.resolve(keyToJob)

	// Solver hooks.
	win := tr.windowSpans(ps.start, ps.end)
	set("core.extract_ms", meanDurMS(win, "core.extract"), "ms")
	set("extract.portz_us", 1000*meanDurMS(win, "extract.portz"), "us")
	set("sparam.shard_ms", meanDurMS(win, "sparam.shard"), "ms")
	set("sparam.point_retries", float64(tr.retries.Load()), "count")

	// Storage, per job of the window.
	var fsyncs, fsyncNs, appends, snaps, bytes int64
	var cacheReadNs, cacheWriteNs int64
	hookSpans := map[string][][2]int64{}
	for _, s := range win {
		switch {
		case s.Name == "core.extract" || s.Name == "sparam.shard":
			if s.Job != "" {
				hookSpans[s.Job] = append(hookSpans[s.Job], [2]int64{s.Start, s.End})
			}
		case !strings.HasPrefix(s.Name, "checkpoint."):
			continue
		}
		if strings.HasSuffix(s.Name, ".sync") {
			fsyncs++
			fsyncNs += s.dur()
		}
		if strings.HasSuffix(s.Name, ".write") {
			bytes += s.Bytes
		}
		switch s.Name {
		case "checkpoint.journal.write":
			appends++
		case "checkpoint.checkpoint.rename":
			snaps++
		case "checkpoint.cache.read":
			cacheReadNs += s.dur()
		case "checkpoint.cache.open", "checkpoint.cache.write", "checkpoint.cache.sync", "checkpoint.cache.rename":
			cacheWriteNs += s.dur()
		}
	}
	set("checkpoint.fsyncs_per_job", float64(fsyncs)/jobs, "count")
	set("checkpoint.fsync_ms_per_job", ms(fsyncNs)/jobs, "ms")
	set("checkpoint.journal_appends_per_job", float64(appends)/jobs, "count")
	set("checkpoint.snapshot_writes_per_job", float64(snaps)/jobs, "count")
	set("checkpoint.bytes_written_per_job", float64(bytes)/jobs, "B")
	set("checkpoint.cache_read_ms", ms(cacheReadNs)/jobs, "ms")
	set("checkpoint.cache_write_ms", ms(cacheWriteNs)/jobs, "ms")

	// Serve layer.
	var overMS []float64
	for _, r := range ps.recs {
		_, start, fin, err := r.status.stamps()
		if err != nil {
			continue
		}
		var iv [][2]int64
		a, b := tr.at(start), tr.at(fin)
		for _, h := range hookSpans[r.status.ID] {
			iv = append(iv, [2]int64{max(h[0], a), min(h[1], b)})
		}
		overMS = append(overMS, ms(b-a-union(iv)))
	}
	set("serve.queue_wait_ms", mean(queueMS), "ms")
	set("serve.run_ms", mean(runMS), "ms")
	set("serve.overhead_ms", mean(overMS), "ms")
	d0, d1 := ps.stats[0], ps.stats[1]
	if daemon {
		set("serve.cache_hit_ratio", float64(hits)/jobs, "ratio")
	} else {
		set("serve.cache_hit_ratio", 0, "ratio")
	}
	set("serve.shard_dispatches_per_job", float64(d1.Shards-d0.Shards)/jobs, "count")
	set("serve.lease_expiries", float64(d1.LeaseExpiries-d0.LeaseExpiries), "count")
	set("serve.storage_retries", float64(d1.StorageRetries-d0.StorageRetries), "count")
	set("serve.assemblies", float64(d1.Assemblies-d0.Assemblies), "count")
	set("serve.shed_429", float64(ps.shed), "count")

	// SSN co-simulation.
	var buildNs, tranNs, steps, newton int64
	for _, st := range ps.ssnSt {
		buildNs += st.buildNs
		tranNs += st.tranNs
		steps += int64(st.steps)
		newton += int64(st.newton)
	}
	nOps := float64(max(len(ps.ssnSt), 1))
	set("ssn.build_ms", ms(buildNs)/nOps, "ms")
	set("circuit.tran_ms", ms(tranNs)/nOps, "ms")
	set("circuit.steps", float64(steps)/nOps, "count")
	set("circuit.newton_iters", float64(newton)/nOps, "count")
	set("circuit.ms_per_newton_iter", ms(tranNs)/float64(newton), "ms")
	opNs := mean(ps.okLatMS) * float64(len(ps.okLatMS)) * 1e6

	// Library replay of the run's inputs for the stage split.
	boards := ps.boards
	if !daemon {
		boards = nil
		for _, sc := range ps.scen {
			boards = append(boards, scenarioBoard(sc))
		}
	}
	boards = boards[:min(replayCap, len(boards))]
	var meshNs, bemNs, redNs, evals int64
	for i := range boards {
		st, err := replayBoard(&boards[i])
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", boards[i].Name, err)
		}
		meshNs += st.meshNs
		bemNs += st.bemNs
		redNs += st.reduceNs
		evals += int64(st.kernelEvals)
	}
	nb := float64(max(len(boards), 1))
	set("mesh.grid_ms", ms(meshNs)/nb, "ms")
	set("bem.assemble_ms", ms(bemNs)/nb, "ms")
	set("bem.kernel_evals", float64(evals)/nb, "count")
	set("extract.reduce_ms", ms(redNs)/nb, "ms")
	// Fallbacks come from the daemon's own extractions in the window only.
	fallbacks := 0
	for _, s := range win {
		if s.Name == "extract.fallback" {
			fallbacks++
		}
	}
	set("extract.operator_fallbacks", float64(fallbacks), "count")

	// Per-core scaling.
	bemEff, extEff, err := stageScaling(boards)
	if err != nil {
		return nil, fmt.Errorf("scaling replay: %w", err)
	}
	set("bem.parallel_eff", bemEff, "ratio")
	set("extract.parallel_eff", extEff, "ratio")
	set("circuit.parallel_eff", 0, "ratio")
	set("circuit.mna_size", 0, "count")
	if !daemon {
		eff, err := circuitScaling(ps.scen)
		if err != nil {
			return nil, fmt.Errorf("scaling replay: %w", err)
		}
		set("circuit.parallel_eff", eff, "ratio")
		var size int
		sample := ps.scen[:min(replayCap, len(ps.scen))]
		for _, sc := range sample {
			b, vrm, chips, decaps := sc.system()
			sys, err := ssn.Build(b, vrm, chips, decaps)
			if err != nil {
				return nil, err
			}
			size += mnaSize(sys.Circuit)
		}
		set("circuit.mna_size", float64(size)/float64(max(len(sample), 1)), "count")
	}

	// Stage shares back the per-workload expectations: reduction dominates
	// extract-dense, the transient dominates ssn-cosim.
	stageNs := float64(meshNs + bemNs + redNs)
	info("shares", map[string]float64{
		"mesh.grid_share_pct":      nan0(100 * float64(meshNs) / stageNs),
		"bem.assemble_share_pct":   nan0(100 * float64(bemNs) / stageNs),
		"extract.reduce_share_pct": nan0(100 * float64(redNs) / stageNs),
		"circuit.tran_share_pct":   nan0(100 * float64(tranNs) / opNs),
		"trace.spans":              float64(len(tr.spans)),
	})
	summary := tr.selfTimes()
	info("self_time", summary)
	path := filepath.Join(o.traces, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := tr.write(path, summary); err != nil {
		return nil, err
	}
	return m, nil
}
