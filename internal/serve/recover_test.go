package serve_test

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pdnsim/internal/checkpoint"
	"pdnsim/internal/fault"
	"pdnsim/internal/mat"
	"pdnsim/internal/serve"
	"pdnsim/internal/simerr"
	"pdnsim/internal/sparam"
	"pdnsim/internal/supervise"
)

// The recovery suite exercises the crash-safety half of the daemon: the
// write-ahead job journal, per-shard leases, poison-shard quarantine, and
// Recover's replay of the journal after both kinds of death — SIGKILL
// mid-sweep (nothing flushed, torn journal tail) and a graceful drain
// (queued jobs flushed, journal closed cleanly).

// noWaitPolicy removes supervision and shard-requeue backoff so the chaos
// clocks run on lease durations alone.
var noWaitPolicy = supervise.Policy{Backoff: -1}

// helperDaemonEnv gates TestHelperServeDaemon: the kill-9 test re-executes
// the test binary with this set to a state directory, producing a real
// daemon process it can SIGKILL.
const helperDaemonEnv = "PDNSIM_SERVE_HELPER_DIR"

// helperFaultsEnv optionally carries a fault schedule spec the helper
// daemon installs on its checkpoint filesystem before starting — so kill-9
// tests can crash a daemon whose storage was already misbehaving.
const helperFaultsEnv = "PDNSIM_SERVE_HELPER_FAULTS"

// TestHelperServeDaemon is not a test: it is the subprocess body of the
// kill-9 chaos test. It starts a daemon over the given state directory,
// submits one slow sweep job, and waits to be killed.
func TestHelperServeDaemon(t *testing.T) {
	dir := os.Getenv(helperDaemonEnv)
	if dir == "" {
		t.Skip("helper process body; driven by TestKill9RecoveryResumesBitwiseIdentical")
	}
	if spec := os.Getenv(helperFaultsEnv); spec != "" {
		sched, err := fault.ParseSchedule(spec)
		if err != nil {
			t.Fatalf("helper fault schedule %q: %v", spec, err)
		}
		// No restore: the helper dies by SIGKILL, never by cleanup.
		checkpoint.SetFS(fault.WrapFS(checkpoint.OS(), fault.NewInjector(sched)))
	}
	s := serve.New(serve.Config{Workers: 2, StateDir: dir, CheckpointEvery: 2},
		serve.Hooks{Sweep: slowSweep(50 * time.Millisecond)})
	s.Start(context.Background())
	if _, err := s.Submit(context.Background(), sweepReq(60, "")); err != nil {
		t.Fatalf("helper submit: %v", err)
	}
	// Hold the process open well past the parent's kill; the sweep runs on
	// the worker goroutines.
	time.Sleep(5 * time.Minute)
}

// countJournalKind replays the journal under dir and counts records of one
// kind; missing or torn journals count what is readable.
func countJournalKind(t *testing.T, dir, kind string) int {
	t.Helper()
	recs, _, err := checkpoint.ReplayJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		return 0
	}
	n := 0
	for _, r := range recs {
		if r.Kind == kind {
			n++
		}
	}
	return n
}

// journaledJobs replays the journal under dir and returns, by job id, the
// sweep spec of every accept record (nil for an extraction-only job) and the
// state of every finish record.
func journaledJobs(t *testing.T, dir string) (accepts map[string]*serve.SweepSpec, finishes map[string]string) {
	t.Helper()
	recs, _, err := checkpoint.ReplayJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatalf("ReplayJournal: %v", err)
	}
	accepts, finishes = make(map[string]*serve.SweepSpec), make(map[string]string)
	for _, r := range recs {
		var p struct {
			ID    string           `json:"id"`
			Sweep *serve.SweepSpec `json:"sweep"`
			State string           `json:"state"`
		}
		if json.Unmarshal(r.Payload, &p) != nil || p.ID == "" {
			continue
		}
		switch r.Kind {
		case "serve-accept":
			accepts[p.ID] = p.Sweep
		case "serve-finish":
			finishes[p.ID] = p.State
		}
	}
	return accepts, finishes
}

// TestKill9RecoveryResumesBitwiseIdentical is the headline crash test: a
// daemon process is killed with SIGKILL mid-sweep — no drain, no snapshot
// flush, journal cut mid-stream — and a fresh daemon over the same state
// directory must auto-resume the job from its last completed shard and
// produce a touchstone bitwise identical to an uninterrupted run.
func TestKill9RecoveryResumesBitwiseIdentical(t *testing.T) {
	// Uninterrupted reference on its own state directory.
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

	// Victim daemon in a subprocess, killed once at least two shards have
	// committed (snapshot written, shard-done journaled) but long before the
	// sweep could finish.
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestHelperServeDaemon$", "-test.v")
	cmd.Env = append(os.Environ(), helperDaemonEnv+"="+dir)
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

	// Restart over the same state directory: Recover must resubmit the job
	// under its original id with no operator action beyond the call.
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
	if st.Sweep == nil || st.Sweep.Restored < 1 {
		t.Fatalf("recovered job recomputed everything (no restored points): %+v", st.Sweep)
	}
	ts, err := s2.Touchstone("j-000001")
	if err != nil {
		t.Fatal(err)
	}
	if ts != refTS {
		t.Fatalf("resumed touchstone differs from the uninterrupted run:\nresumed %d bytes, reference %d bytes",
			len(ts), len(refTS))
	}
	if got := s2.Stats().Recovered; got != 1 {
		t.Fatalf("stats.Recovered = %d, want 1", got)
	}
}

// TestLeaseExpiryRequeuesShard: a shard whose first dispatch hangs loses its
// lease, frees the worker, and succeeds on the requeued dispatch — the job
// completes clean, with the expiry on the books.
func TestLeaseExpiryRequeuesShard(t *testing.T) {
	check := noLeaks(t)
	var stalled atomic.Bool
	hook := func(ctx context.Context, freqs []float64, lo, hi int, skip []bool, opts sparam.SweepOptions, zAt sparam.ZFunc) ([]*mat.CMatrix, []sparam.PointStatus, error) {
		if stalled.CompareAndSwap(false, true) {
			<-ctx.Done()
			return nil, nil, &simerr.CancelledError{Op: "chaos: stalled shard", Err: ctx.Err()}
		}
		return sparam.SweepZShardSupervised(ctx, freqs, lo, hi, skip, opts, zAt)
	}
	s := startServer(t, serve.Config{
		Workers: 2, ShardPoints: 2, ShardLease: 80 * time.Millisecond,
		ShardAttempts: 3, Policy: noWaitPolicy,
	}, serve.Hooks{Sweep: hook})

	id, err := s.Submit(context.Background(), sweepReq(4, ""))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, id, 30*time.Second)
	if st.State != serve.StateDone {
		t.Fatalf("state = %q (error %q), want done — one stalled dispatch must not cost the job", st.State, st.Error)
	}
	if st.ShardsTotal != 2 || st.ShardsDone != 2 || st.Quarantined != 0 {
		t.Fatalf("shard progress = %d/%d (%d quarantined), want 2/2 clean", st.ShardsDone, st.ShardsTotal, st.Quarantined)
	}
	stats := s.Stats()
	if stats.LeaseExpiries < 1 {
		t.Fatalf("lease expiry not counted: %+v", stats)
	}
	if stats.Shards < 3 {
		t.Fatalf("shard dispatches = %d, want ≥ 3 (2 shards + 1 requeue)", stats.Shards)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	s.Drain(dctx)
	check()
}

// TestPoisonShardQuarantinesJobPartial: a shard that hangs on every dispatch
// exhausts its attempt budget and is quarantined; its points are reported
// failed with the quarantine detail and the job completes "partial" — the
// other shards' results survive, and the daemon keeps serving.
func TestPoisonShardQuarantinesJobPartial(t *testing.T) {
	check := noLeaks(t)
	const poisonedIdx = 4
	hook := func(ctx context.Context, freqs []float64, lo, hi int, skip []bool, opts sparam.SweepOptions, zAt sparam.ZFunc) ([]*mat.CMatrix, []sparam.PointStatus, error) {
		if lo <= poisonedIdx && poisonedIdx < hi {
			<-ctx.Done()
			return nil, nil, &simerr.CancelledError{Op: "chaos: poison shard", Err: ctx.Err()}
		}
		return sparam.SweepZShardSupervised(ctx, freqs, lo, hi, skip, opts, zAt)
	}
	s := startServer(t, serve.Config{
		Workers: 2, ShardPoints: 2, ShardLease: 80 * time.Millisecond,
		ShardAttempts: 2, Policy: noWaitPolicy,
	}, serve.Hooks{Sweep: hook})

	id, err := s.Submit(context.Background(), sweepReq(8, ""))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, id, 30*time.Second)
	if st.State != serve.StatePartial || st.ErrorClass != "partial" {
		t.Fatalf("state=%q class=%q (error %q), want partial/partial", st.State, st.ErrorClass, st.Error)
	}
	if st.ShardsTotal != 4 || st.ShardsDone != 3 || st.Quarantined != 1 {
		t.Fatalf("shard progress = %d/%d (%d quarantined), want 3/4 with 1 quarantined",
			st.ShardsDone, st.ShardsTotal, st.Quarantined)
	}
	if st.Sweep == nil || st.Sweep.Points != 8 || st.Sweep.Failed != 2 {
		t.Fatalf("sweep report = %+v, want 8 points with the quarantined shard's 2 failed", st.Sweep)
	}
	quarantineDetail := false
	for _, p := range st.Sweep.Abnormal {
		if strings.Contains(p.Error, "quarantined") {
			quarantineDetail = true
		}
	}
	if !quarantineDetail {
		t.Fatalf("abnormal points carry no quarantine detail: %+v", st.Sweep.Abnormal)
	}
	// The surviving six points serve a usable touchstone.
	ts, err := s.Touchstone(id)
	if err != nil || ts == "" {
		t.Fatalf("partial touchstone: %v", err)
	}
	stats := s.Stats()
	if stats.Quarantined != 1 || stats.LeaseExpiries < 1 {
		t.Fatalf("stats = %+v, want 1 quarantined and ≥1 lease expiry", stats)
	}

	// The daemon is unharmed: the next job completes clean.
	id2, err := s.Submit(context.Background(), &serve.JobRequest{Board: []byte(testBoard)})
	if err != nil {
		t.Fatal(err)
	}
	if st2 := waitTerminal(t, s, id2, 30*time.Second); st2.State != serve.StateDone {
		t.Fatalf("post-quarantine job = %q, want done", st2.State)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	s.Drain(dctx)
	check()
}

// TestRecoverReplaysDrainFlushedJobs: jobs a drain flushed before they
// started keep their journaled accept records and no finish record, so
// Recover auto-resubmits them on the next start — under their original ids,
// in order, with the id sequence restored past them. The journal is the only
// recovery source: the drain writes no second file.
func TestRecoverReplaysDrainFlushedJobs(t *testing.T) {
	dir := t.TempDir()
	cfg := serve.Config{Workers: 1, QueueCap: 8, StateDir: dir}
	s1 := serve.New(cfg, serve.Hooks{Extract: delayedExtract(150 * time.Millisecond)})
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	s1.Start(ctx1)

	id1, err := s1.Submit(context.Background(), &serve.JobRequest{Board: []byte(testBoard)})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s1.Submit(context.Background(), sweepReq(6, ""))
	if err != nil {
		t.Fatal(err)
	}
	id3, err := s1.Submit(context.Background(), &serve.JobRequest{Board: []byte(testBoard)})
	if err != nil {
		t.Fatal(err)
	}
	// Let the first job start so the drain leaves exactly two queued.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, serr := s1.JobStatus(id1)
		if serr != nil {
			t.Fatal(serr)
		}
		if st.State == serve.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", id1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer dcancel()
	rep := s1.Drain(dctx)
	if rep.Flushed != 2 {
		t.Fatalf("drain flushed %d jobs, want 2: %+v", rep.Flushed, rep)
	}
	if _, err := os.Stat(filepath.Join(dir, "queue.manifest")); !os.IsNotExist(err) {
		t.Fatalf("drain wrote a queue manifest (stat err %v); the journal is the only recovery source", err)
	}

	// Second daemon over the same state directory.
	s2 := startServer(t, serve.Config{Workers: 1, StateDir: dir}, serve.Hooks{})
	rrep, err := s2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rrep.Resubmitted) != 2 || rrep.Resubmitted[0] != id2 || rrep.Resubmitted[1] != id3 {
		t.Fatalf("resubmitted = %v, want [%s %s] in order", rrep.Resubmitted, id2, id3)
	}
	for _, id := range []string{id2, id3} {
		st := waitTerminal(t, s2, id, 60*time.Second)
		if st.State != serve.StateDone {
			t.Fatalf("recovered job %s = %q (error %q), want done", id, st.State, st.Error)
		}
	}
	if got := s2.Stats().Recovered; got != 2 {
		t.Fatalf("stats.Recovered = %d, want 2", got)
	}
	// The id sequence resumed past the recovered ids: no collision.
	id4, err := s2.Submit(context.Background(), &serve.JobRequest{Board: []byte(testBoard)})
	if err != nil {
		t.Fatal(err)
	}
	if id4 != "j-000004" {
		t.Fatalf("post-recovery id = %s, want j-000004 (sequence restored)", id4)
	}
	waitTerminal(t, s2, id4, 30*time.Second)

	// A second Recover over the now-clean state is a no-op.
	rrep2, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rrep2.Resubmitted) != 0 || len(rrep2.Failed) != 0 {
		t.Fatalf("second recover not idempotent: %+v", rrep2)
	}
}

// TestRecoverWithoutStateDirIsNoOp: an in-memory daemon has nothing to
// recover and must say so quietly.
func TestRecoverWithoutStateDirIsNoOp(t *testing.T) {
	s := startServer(t, serve.Config{Workers: 1}, serve.Hooks{})
	rep, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Resubmitted) != 0 {
		t.Fatalf("no-op recover report = %+v", rep)
	}
}
