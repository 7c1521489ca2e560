package serve_test

// The storage-fault chaos suite: seeded fault schedules (internal/fault)
// installed under the checkpoint FS seam while a real daemon serves real
// jobs. The invariants, schedule by schedule:
//
//   - storage errors never crash the daemon or surface as 5xx — the
//     transport answers, the solve completes, only durability degrades;
//   - every accepted job reaches a terminal state and drain terminates;
//   - no job is *silently* non-durable: durable:false always carries a
//     last_error explaining which write failed;
//   - degraded durability re-arms once the fault schedule exhausts, and
//     jobs accepted afterwards are durable:true again.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"pdnsim/internal/checkpoint"
	"pdnsim/internal/core"
	"pdnsim/internal/fault"
	"pdnsim/internal/serve"
	"pdnsim/internal/simerr"
	"pdnsim/internal/supervise"
)

// installFaults parses spec and interposes the fault injector on the
// checkpoint filesystem for the duration of the test. Tests using it must
// not run in parallel: the FS override is package-global.
func installFaults(t *testing.T, spec string) *fault.Injector {
	t.Helper()
	sched, err := fault.ParseSchedule(spec)
	if err != nil {
		t.Fatalf("ParseSchedule(%q): %v", spec, err)
	}
	in := fault.NewInjector(sched)
	t.Cleanup(checkpoint.SetFS(fault.WrapFS(checkpoint.OS(), in)))
	return in
}

// fastStorage removes the storage-retry backoff so degraded transitions
// happen at test speed.
var fastStorage = supervise.Policy{MaxAttempts: 3, Backoff: -1}

// waitDurability polls the daemon until it reports the wanted state.
func waitDurability(t *testing.T, s *serve.Server, want serve.DurabilityState, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for s.Durability() != want {
		if time.Now().After(deadline) {
			t.Fatalf("durability stuck at %q after %v, want %q", s.Durability(), timeout, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStorageFaultScheduleSweep drives the daemon under a battery of seeded
// fault schedules. Every schedule replays deterministically; the assertions
// are the storage-chaos invariants, not exact fault positions (worker
// interleaving decides which operation a probabilistic rule hits).
func TestStorageFaultScheduleSweep(t *testing.T) {
	schedules := []string{
		"seed=1;journal.append:eio{p=0.5}",
		"seed=3;journal.write:torn{times=2}",
		"seed=4;cache.put:enospc",
		"seed=5;checkpoint.*:eio{p=0.4}",
		"seed=6;*:eio{p=0.2,times=20}",
		"seed=7;journal.append:latency{delay=5ms,p=0.5};dir.sync:latency{delay=2ms}",
		"seed=8;journal.rewrite:eio{p=0.5}",
	}
	for _, spec := range schedules {
		t.Run(spec, func(t *testing.T) {
			check := noLeaks(t)
			installFaults(t, spec)
			dir := t.TempDir()
			s := startServer(t, serve.Config{
				Workers: 2, StateDir: dir, CheckpointEvery: 2,
				StoragePolicy: fastStorage, RearmProbe: 20 * time.Millisecond,
			}, serve.Hooks{})
			srv := httptest.NewServer(s.Handler())

			// A mix of extraction-only and sweep jobs, submitted over HTTP:
			// the transport must answer every request below 500 regardless
			// of what the schedule does to the disk.
			var ids []string
			for i := 0; i < 4; i++ {
				req := &serve.JobRequest{Board: []byte(testBoard)}
				if i%2 == 1 {
					req = sweepReq(6, "")
				}
				resp := postJob(t, srv.Client(), srv.URL, req)
				if resp.StatusCode >= 500 {
					t.Fatalf("submit %d: HTTP %d — storage faults must never 500 the API", i, resp.StatusCode)
				}
				if resp.StatusCode != http.StatusAccepted {
					resp.Body.Close()
					t.Fatalf("submit %d: HTTP %d, want 202 (queue is not full)", i, resp.StatusCode)
				}
				ids = append(ids, decodeBody[map[string]string](t, resp)["id"])
			}

			// Every accepted job reaches a terminal state; none is lost.
			for _, id := range ids {
				st := waitTerminal(t, s, id, 60*time.Second)
				if st.State != serve.StateDone {
					t.Fatalf("job %s = %q (error %q): storage faults must not fail the solve", id, st.State, st.Error)
				}
				// The no-silent-degradation invariant.
				if !st.Durable && st.LastError == "" {
					t.Fatalf("job %s is durable:false with no last_error — silent non-durability", id)
				}
			}

			// readyz keeps answering 200 (ready or degraded) while accepting.
			resp, err := srv.Client().Get(srv.URL + "/readyz")
			if err != nil {
				t.Fatalf("readyz: %v", err)
			}
			body := decodeBody[map[string]any](t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("readyz = HTTP %d (%v), want 200", resp.StatusCode, body)
			}
			if got := body["status"]; got != "ready" && got != "degraded" {
				t.Fatalf("readyz status = %v, want ready or degraded", got)
			}

			// Drain terminates with the schedule still active.
			dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer dcancel()
			s.Drain(dctx)
			srv.Client().CloseIdleConnections()
			srv.Close()
			check()
		})
	}
}

// TestDegradedDurabilityRearm walks the full state machine: a bounded burst
// of journal-append failures degrades durability (jobs keep completing,
// marked durable:false with a cause; readyz says degraded), the probe burns
// through the rest of the schedule, and once storage answers again the
// daemon rewrites the journal and re-arms — after which new jobs are
// durable:true.
func TestDegradedDurabilityRearm(t *testing.T) {
	check := noLeaks(t)
	// 9 failures at 3 attempts per append: the first append burst exhausts
	// its retries and degrades; the probes consume the rest and the
	// schedule runs dry, so re-arm is guaranteed, deterministically.
	installFaults(t, "journal.append:eio{times=9}")
	dir := t.TempDir()
	s := startServer(t, serve.Config{
		Workers: 1, StateDir: dir,
		StoragePolicy: fastStorage, RearmProbe: 25 * time.Millisecond,
	}, serve.Hooks{})
	srv := httptest.NewServer(s.Handler())

	id1, err := s.Submit(context.Background(), &serve.JobRequest{Board: []byte(testBoard)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDurability(t, s, serve.DurabilityDegraded, 10*time.Second)

	// Degraded is a 200 with its own status: the daemon still serves.
	resp, err := srv.Client().Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	if body := decodeBody[map[string]any](t, resp); resp.StatusCode != http.StatusOK || body["status"] != "degraded" {
		t.Fatalf("readyz while degraded = HTTP %d %v, want 200 degraded", resp.StatusCode, body)
	}

	// The job completes despite the sick journal, marked honestly.
	st1 := waitTerminal(t, s, id1, 30*time.Second)
	if st1.State != serve.StateDone {
		t.Fatalf("job under journal faults = %q (error %q), want done", st1.State, st1.Error)
	}
	if st1.Durable {
		t.Fatalf("job %s claims durable:true although its journal records failed", id1)
	}
	if st1.LastError == "" {
		t.Fatalf("degraded job carries no last_error")
	}

	// The schedule exhausts under the probe; the daemon must re-arm on its
	// own — no restart, no operator action.
	waitDurability(t, s, serve.DurabilityArmed, 15*time.Second)
	stats := s.Stats()
	if stats.DegradeEvents < 1 || stats.RearmEvents < 1 {
		t.Fatalf("stats = %+v, want ≥1 degrade and ≥1 re-arm event", stats)
	}
	if stats.NonDurable < 1 {
		t.Fatalf("stats.NonDurable = %d, want ≥1 (job %s finished non-durable)", stats.NonDurable, id1)
	}

	// Jobs accepted after the re-arm are durable again.
	id2, err := s.Submit(context.Background(), &serve.JobRequest{Board: []byte(testBoard)})
	if err != nil {
		t.Fatalf("Submit after re-arm: %v", err)
	}
	st2 := waitTerminal(t, s, id2, 30*time.Second)
	if st2.State != serve.StateDone || !st2.Durable || st2.LastError != "" {
		t.Fatalf("post-re-arm job = %q durable=%v lastErr=%q, want done/true/empty",
			st2.State, st2.Durable, st2.LastError)
	}

	// The re-armed journal is a consistent WAL: replayable front to back
	// with no torn tail.
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	s.Drain(dctx)
	if _, truncated, err := checkpoint.ReplayJournal(filepath.Join(dir, "jobs.journal")); err != nil || truncated {
		t.Fatalf("journal after re-arm: truncated=%v err=%v, want clean replay", truncated, err)
	}
	srv.Client().CloseIdleConnections()
	srv.Close()
	check()
}

// gatedExtract blocks every extraction on the gate channel (context-aware),
// then runs the real supervised extraction — it keeps jobs non-terminal for
// as long as a test needs, without faking results.
func gatedExtract(gate <-chan struct{}) func(context.Context, *core.BoardSpec, supervise.Policy) (*core.Result, supervise.Status, error) {
	return func(ctx context.Context, spec *core.BoardSpec, pol supervise.Policy) (*core.Result, supervise.Status, error) {
		select {
		case <-ctx.Done():
			return nil, supervise.Status{}, &simerr.CancelledError{Op: "chaos: gated extract", Err: ctx.Err()}
		case <-gate:
		}
		return spec.ExtractSupervisedCtx(ctx, pol)
	}
}

// TestRearmWindowSubmitStaysHonest pins the capture→rewrite race in the
// re-arm probe: a job admitted *after* the probe captures the live set but
// *before* the armed flip had its degraded-mode journal append skipped and
// is in neither the old nor the rewritten WAL. The flip must not hand it
// durable:true until a catch-up append has actually landed — otherwise a
// crash would silently lose a job whose status claimed durability. Injected
// latency on the rewrite's staging fsync stretches the window so the
// submission loop reliably lands inside it, and the gated extract keeps
// every job non-terminal so a finish record cannot vouch for anyone.
func TestRearmWindowSubmitStaysHonest(t *testing.T) {
	check := noLeaks(t)
	// Two appenders race for the eio faults: the first Submit's accept
	// append and the worker's serve-start append for the same job. Each
	// makes at most three attempts (fastStorage), so six faults guarantee
	// one of them exhausts its retries and degrades durability whatever the
	// interleaving; with only three, the two could split them and neither
	// degrade. When the second append starts after the degrade it is
	// skipped, and probe appends use up the faults it leaves over. The re-arm rewrite is stretched
	// by 250 ms, spanning many submit-loop iterations.
	installFaults(t, "journal.append:eio{times=6};journal.rewrite:latency{delay=250ms,times=4}")
	dir := t.TempDir()
	gate := make(chan struct{})
	s := startServer(t, serve.Config{
		Workers: 1, StateDir: dir,
		StoragePolicy: fastStorage, RearmProbe: 20 * time.Millisecond,
	}, serve.Hooks{Extract: gatedExtract(gate)})

	ids := []string{}
	id1, err := s.Submit(context.Background(), &serve.JobRequest{Board: []byte(testBoard)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ids = append(ids, id1)
	waitDurability(t, s, serve.DurabilityDegraded, 10*time.Second)

	// Submit while the probe re-arms. A submission that starts and ends
	// with durability still degraded was admitted with its append skipped;
	// the ones after the capture are the race the fix covers.
	var whileDegraded []string
	deadline := time.Now().Add(10 * time.Second)
	for s.Durability() != serve.DurabilityArmed {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never re-armed")
		}
		before := s.Durability()
		id, serr := s.Submit(context.Background(), &serve.JobRequest{Board: []byte(testBoard)})
		if serr == nil {
			ids = append(ids, id)
			if before == serve.DurabilityDegraded && s.Durability() == serve.DurabilityDegraded {
				whileDegraded = append(whileDegraded, id)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(whileDegraded) == 0 {
		t.Fatalf("no submission landed while degraded; the race window was never exercised")
	}

	// Every degraded-admission job must regain durable:true — via the
	// rewrite capture or the catch-up append — within a probe cycle or two.
	for _, id := range whileDegraded {
		waitFor := time.Now().Add(5 * time.Second)
		for {
			st, jerr := s.JobStatus(id)
			if jerr != nil {
				t.Fatalf("JobStatus(%s): %v", id, jerr)
			}
			if st.Durable {
				break
			}
			if st.LastError == "" {
				t.Fatalf("job %s is durable:false with no last_error — silent non-durability", id)
			}
			if time.Now().After(waitFor) {
				t.Fatalf("job %s never regained durability after re-arm (last_error %q)", id, st.LastError)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// The honesty invariant: a durable:true claim is only ever made after
	// the job's accept record is durably in the WAL, so reading the journal
	// *after* the status reads must show a record for every claimant. All
	// jobs are still non-terminal (the extract gate is closed), so no
	// finish record can satisfy this.
	durable := make(map[string]bool)
	for _, id := range ids {
		st, jerr := s.JobStatus(id)
		if jerr != nil {
			t.Fatalf("JobStatus(%s): %v", id, jerr)
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %q with the extract gate closed", id, st.State)
		}
		durable[id] = st.Durable
	}
	recs, _, rerr := checkpoint.ReplayJournal(filepath.Join(dir, "jobs.journal"))
	if rerr != nil {
		t.Fatalf("ReplayJournal: %v", rerr)
	}
	journaled := make(map[string]bool)
	for _, r := range recs {
		if r.Kind != "serve-accept" {
			continue
		}
		var a struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(r.Payload, &a) == nil && a.ID != "" {
			journaled[a.ID] = true
		}
	}
	for _, id := range ids {
		if durable[id] && !journaled[id] {
			t.Fatalf("job %s claims durable:true but has no accept record in the WAL — a crash would silently lose it", id)
		}
	}

	close(gate)
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	s.Drain(dctx)
	check()
}

// TestDegradedFromStartSkipsCacheWrites: a journal that cannot even open
// starts the daemon degraded (service up, durability down), and degraded
// mode skips operator-cache writes — a repeat submission of the same board
// misses the cache instead of reading a half-written entry.
func TestDegradedFromStartSkipsCacheWrites(t *testing.T) {
	check := noLeaks(t)
	installFaults(t, "journal.open:eio")
	dir := t.TempDir()
	s := startServer(t, serve.Config{
		Workers: 1, StateDir: dir,
		StoragePolicy: fastStorage, RearmProbe: 20 * time.Millisecond,
	}, serve.Hooks{})
	if got := s.Durability(); got != serve.DurabilityDegraded {
		t.Fatalf("durability with unopenable journal = %q, want degraded from start", got)
	}

	for i := 0; i < 2; i++ {
		id, err := s.Submit(context.Background(), &serve.JobRequest{Board: []byte(testBoard)})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		st := waitTerminal(t, s, id, 30*time.Second)
		if st.State != serve.StateDone || st.Durable {
			t.Fatalf("job %d = %q durable=%v, want done and non-durable", i, st.State, st.Durable)
		}
	}
	stats := s.Stats()
	if stats.CacheMisses != 2 || stats.CacheHits != 0 {
		t.Fatalf("cache hits/misses = %d/%d, want 0/2 — degraded mode must skip cache writes",
			stats.CacheHits, stats.CacheMisses)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	s.Drain(dctx)
	check()
}

// TestDrainJournalsFlushedJobsWhileDegraded: a daemon whose journal never
// opened starts degraded and skips every accept append, so the jobs queued
// behind its one (gated) worker have no accept records when a drain flushes
// them. The drain's last act opens the journal and appends them. When the
// appends land, every flushed job is durable:true and a second daemon's
// Recover brings them back in order under their original ids. When the
// appends keep failing, every flushed job says so with durable:false and a
// last_error, and the drain still terminates without leaking. Neither case
// writes a queue manifest.
func TestDrainJournalsFlushedJobsWhileDegraded(t *testing.T) {
	for _, tc := range []struct {
		name, faults string
		lands        bool
	}{
		{"catch-up lands", "journal.open:eio{times=1}", true},
		{"appends keep failing", "journal.open:eio{times=1};journal.append:eio", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := noLeaks(t)
			installFaults(t, tc.faults)
			dir := t.TempDir()
			// The gate never opens: the drain cancels the job holding the
			// worker. The probe cadence is far beyond the test, so the
			// drain, not a re-arm, is what journals the flushed jobs.
			s := serve.New(serve.Config{
				Workers: 1, QueueCap: 8, StateDir: dir,
				StoragePolicy: fastStorage, RearmProbe: time.Hour,
			}, serve.Hooks{Extract: gatedExtract(make(chan struct{}))})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s.Start(ctx)
			if got := s.Durability(); got != serve.DurabilityDegraded {
				t.Fatalf("durability with unopenable journal = %q, want degraded", got)
			}

			var ids []string
			for _, req := range []*serve.JobRequest{{Board: []byte(testBoard)}, sweepReq(6, ""), {Board: []byte(testBoard)}} {
				id, err := s.Submit(context.Background(), req)
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				ids = append(ids, id)
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				st, err := s.JobStatus(ids[0])
				if err != nil {
					t.Fatal(err)
				}
				if st.State == serve.StateRunning {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("job %s never started: %+v", ids[0], st)
				}
				time.Sleep(5 * time.Millisecond)
			}

			dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer dcancel()
			if rep := s.Drain(dctx); rep.Flushed != 2 || rep.Cancelled != 1 {
				t.Fatalf("drain report = %+v, want 2 flushed / 1 cancelled", rep)
			}
			flushed := ids[1:]
			accepts, _ := journaledJobs(t, dir)
			for _, id := range flushed {
				st, err := s.JobStatus(id)
				if err != nil {
					t.Fatal(err)
				}
				if st.State != serve.StateFlushed {
					t.Fatalf("job %s = %q, want flushed", id, st.State)
				}
				if st.Durable != tc.lands || (st.LastError == "") != tc.lands {
					t.Fatalf("flushed job %s: durable=%v last_error=%q, want durable=%v with a last_error exactly when not durable",
						id, st.Durable, st.LastError, tc.lands)
				}
				if _, ok := accepts[id]; st.Durable && !ok {
					t.Fatalf("flushed job %s claims durable:true but has no accept record in the journal", id)
				}
			}
			// The cancelled job is non-durable in both cases; the flushed
			// ones only when their catch-up failed.
			wantNonDurable := int64(1)
			if !tc.lands {
				wantNonDurable += int64(len(flushed))
			}
			if got := s.Stats().NonDurable; got != wantNonDurable {
				t.Fatalf("stats.NonDurable = %d, want %d", got, wantNonDurable)
			}
			if _, err := os.Stat(filepath.Join(dir, "queue.manifest")); !os.IsNotExist(err) {
				t.Fatalf("drain wrote a queue manifest (stat err %v)", err)
			}
			cancel()
			check()
			if !tc.lands {
				return
			}

			s2 := startServer(t, serve.Config{Workers: 1, StateDir: dir}, serve.Hooks{})
			rep, err := s2.Recover()
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if len(rep.Resubmitted) != 2 || rep.Resubmitted[0] != flushed[0] || rep.Resubmitted[1] != flushed[1] {
				t.Fatalf("resubmitted = %v, want %v in order", rep.Resubmitted, flushed)
			}
			for _, id := range flushed {
				if st := waitTerminal(t, s2, id, 60*time.Second); st.State != serve.StateDone {
					t.Fatalf("recovered job %s = %q (error %q), want done", id, st.State, st.Error)
				}
			}
			id4, err := s2.Submit(context.Background(), &serve.JobRequest{Board: []byte(testBoard)})
			if err != nil {
				t.Fatal(err)
			}
			if id4 != "j-000004" {
				t.Fatalf("post-recovery id = %s, want j-000004 (sequence restored)", id4)
			}
			waitTerminal(t, s2, id4, 30*time.Second)
		})
	}
}

// TestDrainDuringRearmKeepsFlushedJobs pins the drain/re-arm race: the
// probe passes its draining check, then a drain flushes the queued jobs
// before the probe captures its compaction set. Flushed jobs are terminal,
// but their accept records are what re-admits them, so the rewrite must keep
// them; dropping them would leave jobs durable:true with no record, and the
// drain's catch-up only covers durable:false ones. Journal syncs, in order:
// 1 A's accept, 2 A's serve-start (done once the extract hook is entered),
// 3–4 B's and C's accepts, 5–7 D's accept failing three times (degrade),
// 8 the probe's append, held for 500 ms while the drain flushes B, C and D.
func TestDrainDuringRearmKeepsFlushedJobs(t *testing.T) {
	check := noLeaks(t)
	in := installFaults(t, "journal.append:latency{after=7,times=1,delay=500ms};journal.append:eio{after=4,times=3}")
	dir := t.TempDir()
	entered := make(chan struct{}, 1)
	s := serve.New(serve.Config{
		Workers: 1, QueueCap: 8, StateDir: dir,
		StoragePolicy: fastStorage, RearmProbe: 20 * time.Millisecond,
	}, serve.Hooks{Extract: func(ctx context.Context, _ *core.BoardSpec, _ supervise.Policy) (*core.Result, supervise.Status, error) {
		entered <- struct{}{}
		<-ctx.Done()
		return nil, supervise.Status{}, &simerr.CancelledError{Op: "chaos: held extract", Err: ctx.Err()}
	}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	submit := func(req *serve.JobRequest) string {
		t.Helper()
		id, err := s.Submit(context.Background(), req)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		return id
	}
	submit(&serve.JobRequest{Board: []byte(testBoard)})
	<-entered
	flushed := []string{submit(sweepReq(6, "")), submit(&serve.JobRequest{Board: []byte(testBoard)})}
	for _, id := range flushed {
		if st, err := s.JobStatus(id); err != nil || !st.Durable {
			t.Fatalf("job %s before the fault: %+v, %v; want durable:true", id, st, err)
		}
	}
	flushed = append(flushed, submit(&serve.JobRequest{Board: []byte(testBoard)}))
	waitDurability(t, s, serve.DurabilityDegraded, 10*time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for in.Injected()["journal.sync"] < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("the re-arm probe never reached its append (injected %v)", in.Injected())
		}
		time.Sleep(time.Millisecond)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer dcancel()
	if rep := s.Drain(dctx); rep.Flushed != 3 || rep.Cancelled != 1 {
		t.Fatalf("drain report = %+v, want 3 flushed / 1 cancelled", rep)
	}
	accepts, _ := journaledJobs(t, dir)
	for _, id := range flushed {
		st, err := s.JobStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := accepts[id]; st.State != serve.StateFlushed || !st.Durable || !ok {
			t.Fatalf("job %s = %q durable=%v last_error=%q journaled=%v; want flushed, durable, with an accept record",
				id, st.State, st.Durable, st.LastError, ok)
		}
	}
	cancel()
	check()

	s2 := startServer(t, serve.Config{Workers: 1, StateDir: dir}, serve.Hooks{})
	rep, err := s2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rep.Resubmitted) != len(flushed) {
		t.Fatalf("resubmitted = %v, want %v in order", rep.Resubmitted, flushed)
	}
	for i, id := range flushed {
		if rep.Resubmitted[i] != id {
			t.Fatalf("resubmitted = %v, want %v in order", rep.Resubmitted, flushed)
		}
		if st := waitTerminal(t, s2, id, 60*time.Second); st.State != serve.StateDone {
			t.Fatalf("recovered job %s = %q (error %q), want done", id, st.State, st.Error)
		}
	}
}

// writeJournalRecords appends raw records to a state directory's job
// journal through the checkpoint layer (creating it if needed).
func writeJournalRecords(t *testing.T, dir string, recs ...struct {
	kind    string
	payload any
}) {
	t.Helper()
	j, err := checkpoint.OpenJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	defer j.Close()
	for _, r := range recs {
		if err := j.Append(r.kind, r.payload); err != nil {
			t.Fatalf("Append(%s): %v", r.kind, err)
		}
	}
}

// acceptPayload renders a serve-accept record body for a crafted journal.
func acceptPayload(id string) map[string]any {
	return map[string]any{"id": id, "board": json.RawMessage(testBoard)}
}

// TestRecoverJournalAcceptWithTornFinish: the journal holds a valid accept
// and a *torn* finish record (the crash landed mid-append, or a failed
// append could not heal its tail). Replay must treat the job as live and
// resubmit it exactly once, under its original id.
func TestRecoverJournalAcceptWithTornFinish(t *testing.T) {
	dir := t.TempDir()
	writeJournalRecords(t, dir, struct {
		kind    string
		payload any
	}{"serve-accept", acceptPayload("j-000042")})

	// Tear the finish record: half its bytes reach the journal and the
	// poisoned truncate keeps the self-heal from removing them — the
	// on-disk state of a genuinely sick disk at the worst moment.
	restore := checkpoint.SetFS(fault.WrapFS(checkpoint.OS(), fault.NewInjector(mustSchedule(t, "journal.write:torn{times=1}"))))
	j, err := checkpoint.OpenJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		restore()
		t.Fatalf("OpenJournal: %v", err)
	}
	if err := j.Append("serve-finish", map[string]string{"id": "j-000042", "state": "done"}); err == nil {
		restore()
		t.Fatalf("torn append unexpectedly succeeded")
	}
	j.Close()
	restore()

	s := startServer(t, serve.Config{Workers: 1, StateDir: dir}, serve.Hooks{})
	rep, err := s.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !rep.TruncatedTail {
		t.Fatalf("recover report does not flag the torn tail: %+v", rep)
	}
	if len(rep.Resubmitted) != 1 || rep.Resubmitted[0] != "j-000042" {
		t.Fatalf("resubmitted = %v, want exactly [j-000042]", rep.Resubmitted)
	}
	st := waitTerminal(t, s, "j-000042", 30*time.Second)
	if st.State != serve.StateDone {
		t.Fatalf("recovered job = %q (error %q), want done", st.State, st.Error)
	}
	if !st.Durable {
		t.Fatalf("recovered job durable=false; the compacting rewrite re-journaled it")
	}
	// Exactly once: no duplicate under a fresh id.
	if jobs := s.Jobs(); len(jobs) != 1 {
		t.Fatalf("daemon holds %d jobs after recovery, want exactly 1", len(jobs))
	}
}

// mustSchedule parses a fault schedule or fails the test.
func mustSchedule(t *testing.T, spec string) *fault.Schedule {
	t.Helper()
	s, err := fault.ParseSchedule(spec)
	if err != nil {
		t.Fatalf("ParseSchedule(%q): %v", spec, err)
	}
	return s
}

// TestKill9WithFaultsStillRecovers combines the two chaos axes: a daemon
// whose storage is slow (latency injection on journal, snapshot fsync, and
// directory barriers — widening every crash window) is SIGKILLed mid-sweep,
// and recovery must still resume bitwise-identically. Latency-only on
// purpose: error injection can degrade the helper's durability, which stops
// shard-done journal records and starves the kill trigger; the eio/torn
// crash paths are covered by the in-process tests above.
func TestKill9WithFaultsStillRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	// Uninterrupted, fault-free reference.
	refDir := t.TempDir()
	ref := startServer(t, serve.Config{Workers: 2, StateDir: refDir, CheckpointEvery: 2}, serve.Hooks{})
	refID, err := ref.Submit(context.Background(), sweepReq(60, ""))
	if err != nil {
		t.Fatal(err)
	}
	refSt := waitTerminal(t, ref, refID, 60*time.Second)
	if refSt.State != serve.StateDone {
		t.Fatalf("reference run = %q (error %q), want done", refSt.State, refSt.Error)
	}
	refTS, err := ref.Touchstone(refID)
	if err != nil || refTS == "" {
		t.Fatalf("reference touchstone: %v", err)
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestHelperServeDaemon$", "-test.v")
	cmd.Env = append(os.Environ(),
		helperDaemonEnv+"="+dir,
		helperFaultsEnv+"=seed=11;journal.append:latency{delay=2ms,p=0.6};checkpoint.save.fsync:latency{delay=2ms,p=0.6};dir.sync:latency{delay=1ms,p=0.5}",
	)
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting helper daemon: %v", err)
	}
	killed := false
	defer func() {
		if !killed {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	}()
	deadline := time.Now().Add(30 * time.Second)
	for countJournalKind(t, dir, "serve-shard-done") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("helper daemon never journaled two completed shards")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	_, _ = cmd.Process.Wait()
	killed = true

	// Recovery runs on healthy storage (the disk got better; the crash
	// damage is what persists).
	s2 := startServer(t, serve.Config{Workers: 2, StateDir: dir, CheckpointEvery: 2}, serve.Hooks{})
	rep, err := s2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rep.Resubmitted) != 1 || rep.Resubmitted[0] != "j-000001" {
		t.Fatalf("recover report = %+v, want exactly j-000001 resubmitted", rep)
	}
	st := waitTerminal(t, s2, "j-000001", 60*time.Second)
	if st.State != serve.StateDone {
		t.Fatalf("recovered job = %q (error %q), want done", st.State, st.Error)
	}
	if !st.Durable {
		t.Fatalf("recovered job durable=false on healthy storage; the compacting rewrite re-journaled it")
	}
	ts, err := s2.Touchstone("j-000001")
	if err != nil {
		t.Fatal(err)
	}
	if ts != refTS {
		t.Fatalf("resumed touchstone differs from the uninterrupted run:\nresumed %d bytes, reference %d bytes",
			len(ts), len(refTS))
	}
}
