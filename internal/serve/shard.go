package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pdnsim/internal/mat"
	"pdnsim/internal/simerr"
	"pdnsim/internal/sparam"
)

// shardTask is one dispatchable slice of a sweep job: the half-open point
// range [lo, hi) of shard index idx. attempts counts dispatches consumed
// (lease expiries and panics requeue the task until the attempt budget runs
// out and the shard is quarantined).
type shardTask struct {
	jb       *job
	idx      int
	lo, hi   int
	attempts int
}

// beginSweep prepares a started job's sweep — frequency grid, restore from a
// resume snapshot (an explicit client resume_from, or the job's own snapshot
// for a crash-recovered job) — and fans its incomplete shards out to the
// pool. The calling worker returns to the pool afterwards; the worker that
// resolves the last shard finalises the job. Returns an error only for
// setup failures (an unreadable resume snapshot), before any shard is
// queued.
func (s *Server) beginSweep(jb *job) error {
	sw := jb.sweep
	freqs := sparam.LinSpace(sw.FMin, sw.FMax, sw.NF)
	n := len(freqs)
	results := make([]*mat.CMatrix, n)
	done := make([]bool, n)
	points := make([]sparam.PointStatus, n)
	for i := range points {
		points[i] = sparam.PointStatus{Freq: freqs[i]}
	}

	snapPath := s.snapshotPathFor(jb)
	resume := sw.ResumeFrom
	if resume == "" && jb.recovered && snapPath != "" {
		// A recovered job resumes from its own pre-crash snapshot — same id,
		// same path — when one survived; a job that crashed before its first
		// shard completed starts clean.
		if _, err := os.Stat(snapPath); err == nil {
			resume = snapPath
		}
	}
	restoredSnap := false
	if resume != "" {
		d, r, err := sparam.LoadSweepCheckpoint(resume, freqs, sw.Z0)
		if err != nil {
			return fmt.Errorf("serve: sweep resume: %w", err)
		}
		copy(done, d)
		copy(results, r)
		restoredSnap = true
	}

	jb.sweepMu.Lock()
	jb.freqs = freqs
	jb.results = results
	jb.done = done
	jb.sweepMu.Unlock()

	shardPts := s.cfg.ShardPoints
	total := (n + shardPts - 1) / shardPts
	var tasks []*shardTask
	restored := 0
	for idx := 0; idx < total; idx++ {
		lo := idx * shardPts
		hi := min(lo+shardPts, n)
		complete := true
		for i := lo; i < hi; i++ {
			if !done[i] {
				complete = false
				break
			}
		}
		if complete {
			restored++
			continue
		}
		tasks = append(tasks, &shardTask{jb: jb, idx: idx, lo: lo, hi: hi})
	}

	s.mu.Lock()
	jb.points = points
	jb.shardsTotal = total
	jb.shardsDone = restored
	jb.shardsOutstanding = len(tasks)
	if restoredSnap && snapPath != "" {
		if resume == snapPath {
			jb.snapshotPath = snapPath
		}
		if restored > 0 {
			jb.diag.Infof("serve", "sweep resume", float64(restored), 0,
				"restored %d complete shard(s) from %s", restored, resume)
		}
	}
	if len(tasks) == 0 {
		s.mu.Unlock()
		s.finalizeSweep(jb)
		return nil
	}
	s.shardQ = append(s.shardQ, tasks...)
	s.cond.Broadcast()
	s.mu.Unlock()
	return nil
}

// runShard executes one dispatch of one shard under its lease: solve the
// shard's missing points under a context that expires with the lease, merge
// whatever completed, and triage the outcome — done, job-cancelled,
// requeued with jittered backoff, or quarantined. The lease lives in memory
// only: after a crash the recovered job re-dispatches every shard its
// snapshot does not cover.
func (s *Server) runShard(ctx context.Context, t *shardTask) {
	jb := t.jb
	s.mu.Lock()
	jctx := jb.ctx
	s.mu.Unlock()
	if jctx == nil || jctx.Err() != nil {
		// The job is cancelled (deadline, drain escalation) or already
		// finalising; resolve the shard without running it.
		s.resolveShard(t, false)
		return
	}

	t.attempts++
	s.mu.Lock()
	s.stats.Shards++
	s.mu.Unlock()
	sctx, cancel := context.WithTimeout(jctx, s.cfg.ShardLease)
	results, statuses, err := s.solveShard(sctx, jb, t)
	cancel()

	// Merge whatever completed regardless of disposition: a lease-expired
	// attempt keeps its finished points, so the retry recomputes only the
	// remainder — and the snapshot write inside the merge is what makes a
	// completed point crash-durable.
	s.mergeShard(jb, t, results, statuses)

	switch {
	case err == nil:
		s.resolveShard(t, false)
	case jctx.Err() != nil:
		// Job-level cancellation (deadline or drain), not a lease expiry:
		// the job finalises cancelled/snapshotted once all shards resolve.
		s.resolveShard(t, false)
	case t.attempts >= s.cfg.ShardAttempts:
		s.quarantineShard(t, err)
	default:
		s.requeueShard(t, err)
	}
}

// solveShard invokes the sweep hook for the shard's missing points, with
// panic isolation: a panicking solve quarantines its shard (eventually),
// never a worker.
func (s *Server) solveShard(ctx context.Context, jb *job, t *shardTask) (results []*mat.CMatrix, statuses []sparam.PointStatus, err error) {
	defer simerr.RecoverInto(&err, "serve: shard")
	jb.sweepMu.Lock()
	skip := append([]bool(nil), jb.done...)
	jb.sweepMu.Unlock()
	opts := sparam.SweepOptions{Z0: jb.sweep.Z0, Policy: s.cfg.Policy}
	return s.hooks.Sweep(ctx, jb.freqs, t.lo, t.hi, skip, opts, jb.network.PortZCtx)
}

// mergeShard folds one dispatch's results into the job — results/done under
// sweepMu, statuses under s.mu — then flushes a snapshot so the completed
// points are crash-durable before the shard resolves.
func (s *Server) mergeShard(jb *job, t *shardTask, results []*mat.CMatrix, statuses []sparam.PointStatus) {
	if results == nil && statuses == nil {
		return
	}
	type statusUpdate struct {
		i  int
		st sparam.PointStatus
	}
	var updates []statusUpdate
	merged := false
	gen := 0
	jb.sweepMu.Lock()
	for k := range results {
		i := t.lo + k
		if results[k] != nil && !jb.done[i] {
			jb.results[i] = results[k]
			jb.done[i] = true
			merged = true
		}
	}
	for k := range statuses {
		i := t.lo + k
		st := statuses[k]
		if st.Attempts == 0 && st.Err == nil {
			continue // skipped (already complete) or never attempted
		}
		// A point's status reflects the attempt that produced its value, or
		// its latest failure while it has none — never overwrite a completed
		// point's record with a later lease-cut error.
		if st.Err == nil || !jb.done[i] {
			updates = append(updates, statusUpdate{i: i, st: st})
		}
	}
	if merged {
		jb.snapGen++
		gen = jb.snapGen
	}
	jb.sweepMu.Unlock()

	s.mu.Lock()
	for _, u := range updates {
		jb.points[u.i] = u.st
	}
	s.mu.Unlock()
	if merged {
		s.flushSweepSnapshot(jb, fmt.Sprintf("shard %d", t.idx), gen)
	}
}

// flushSweepSnapshot makes sweep generation gen durable and returns. The
// snapshot file is written with sweepMu RELEASED: holding a mutex across an
// fsync would stall every merge and skip-list read behind disk latency
// (pdnlint's lockhold analyzer flags exactly that shape). Durability is
// tracked by generation instead — each write claims snapWriting, captures
// the newest generation plus copies of done/results under the lock, writes
// outside it, and records what it captured in snapWritten. Concurrent
// callers racing a slow write wait on snapCond and usually find their
// generation already covered when it finishes: N merges coalesce into far
// fewer fsyncs under load, and each caller performs at most one write of
// its own. A failed write is reported through diag (results stay in memory
// only), matching the old in-lock behaviour.
func (s *Server) flushSweepSnapshot(jb *job, what string, gen int) {
	snapPath := s.snapshotPathFor(jb)
	if snapPath == "" {
		return
	}
	var saveErr error
	jb.sweepMu.Lock()
	if jb.snapCond == nil {
		jb.snapCond = sync.NewCond(&jb.sweepMu)
	}
	for jb.snapWritten < gen {
		if jb.snapWriting {
			jb.snapCond.Wait()
			continue
		}
		jb.snapWriting = true
		g := jb.snapGen
		freqs := jb.freqs
		z0 := jb.sweep.Z0
		done := append([]bool(nil), jb.done...)
		results := append([]*mat.CMatrix(nil), jb.results...)
		jb.sweepMu.Unlock()
		err := s.storageRetry(func() error { return s.saveSweep(snapPath, freqs, z0, done, results) })
		jb.sweepMu.Lock()
		jb.snapWriting = false
		if err == nil && g > jb.snapWritten {
			jb.snapWritten = g
		}
		jb.snapCond.Broadcast()
		if err != nil {
			saveErr = err
			break
		}
	}
	jb.sweepMu.Unlock()

	s.mu.Lock()
	if saveErr == nil {
		jb.snapshotPath = snapPath
	} else {
		jb.diag.Warnf("serve", "sweep snapshot", 0, 0, false,
			"%s snapshot write failed (results held in memory only): %v", what, saveErr)
		s.markNonDurableLocked(jb, fmt.Sprintf("sweep snapshot write failed: %v", saveErr))
	}
	s.mu.Unlock()
	if saveErr != nil {
		s.degradeOn("sweep snapshot write", saveErr)
	}
}

// resolveShard retires a shard from the outstanding count, crediting it as
// done unless quarantined, and finalises the job when it was the last one.
func (s *Server) resolveShard(t *shardTask, quarantined bool) {
	jb := t.jb
	s.mu.Lock()
	if quarantined {
		jb.shardsQuarantined++
		s.stats.Quarantined++
	} else {
		jb.shardsDone++
	}
	jb.shardsOutstanding--
	last := jb.shardsOutstanding == 0
	s.mu.Unlock()
	if last {
		s.finalizeSweep(jb)
	}
}

// requeueShard schedules another dispatch of a lease-expired (or panicked)
// shard after the supervision policy's jittered backoff — full jitter, so a
// burst of shards losing their leases together (one machine-wide stall)
// does not retry in lockstep against the pool.
func (s *Server) requeueShard(t *shardTask, cause error) {
	jb := t.jb
	delay := s.cfg.Policy.RetryDelay(t.attempts + 1)
	s.mu.Lock()
	s.stats.LeaseExpiries++
	jb.diag.Warnf("serve", "shard lease", float64(t.idx), 0, true,
		"shard %d (points %d..%d) dispatch %d cut off by its lease; requeued with %v backoff: %v",
		t.idx, t.lo, t.hi-1, t.attempts, delay.Round(time.Millisecond), cause)
	s.mu.Unlock()
	push := func() {
		s.mu.Lock()
		s.shardQ = append(s.shardQ, t)
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	if delay <= 0 {
		push()
		return
	}
	time.AfterFunc(delay, push)
}

// quarantineShard retires a poison shard: its still-missing points are
// marked failed with the quarantine error, and the job completes partial
// (or cancelled/failed, as its other shards decide) instead of hanging on
// an unbounded retry loop.
func (s *Server) quarantineShard(t *shardTask, cause error) {
	jb := t.jb
	qerr := fmt.Errorf("serve: shard %d quarantined after %d dispatch attempts: %w",
		t.idx, t.attempts, cause)
	jb.sweepMu.Lock()
	var missing []int
	for i := t.lo; i < t.hi; i++ {
		if !jb.done[i] {
			missing = append(missing, i)
		}
	}
	jb.sweepMu.Unlock()
	s.mu.Lock()
	for _, i := range missing {
		jb.points[i] = sparam.PointStatus{Freq: jb.freqs[i], Attempts: t.attempts, Err: qerr}
	}
	jb.diag.Warnf("serve", "shard quarantine", float64(t.idx), 0, false,
		"shard %d (points %d..%d) quarantined after %d dispatch attempts, %d point(s) lost: %v",
		t.idx, t.lo, t.hi-1, t.attempts, len(missing), cause)
	s.mu.Unlock()
	s.resolveShard(t, true)
}

// finalizeSweep assembles a sweep job's terminal outcome once its last shard
// resolved: the Sweep from completed points, the touchstone, the
// supervision diagnostics trail, and the disposition error (nil / partial /
// cancelled / all-failed). On cancellation it flushes a final resumable
// snapshot first — the drain contract: an interrupted sweep lands
// "snapshotted", not lost.
func (s *Server) finalizeSweep(jb *job) {
	s.mu.Lock()
	jctx := jb.ctx
	s.mu.Unlock()
	snapPath := s.snapshotPathFor(jb)

	if jctx == nil || jctx.Err() != nil {
		gen := 0
		if snapPath != "" {
			jb.sweepMu.Lock()
			jb.snapGen++
			gen = jb.snapGen
			jb.sweepMu.Unlock()
			// The drain contract: flush a final resumable snapshot (outside
			// sweepMu — flushSweepSnapshot sets jb.snapshotPath on success)
			// so the interrupted sweep lands "snapshotted", not lost.
			s.flushSweepSnapshot(jb, "final", gen)
		}
		cause := context.Canceled
		if jctx != nil {
			cause = jctx.Err()
		}
		s.finalize(jb, &simerr.CancelledError{Op: "serve: sweep", Err: cause})
		return
	}

	s.mu.Lock()
	statuses := append([]sparam.PointStatus(nil), jb.points...)
	s.mu.Unlock()
	jb.sweepMu.Lock()
	sw, err := sparam.AssembleSweep("serve: sweep", jb.freqs, jb.sweep.Z0, jb.done, jb.results, statuses)
	jb.sweepMu.Unlock()
	if sw == nil {
		s.finalize(jb, err)
		return
	}
	ts, terr := sw.Touchstone(jb.spec.Name)
	if terr != nil {
		s.finalize(jb, terr)
		return
	}
	removeSnap := false
	s.mu.Lock()
	jb.touchstone = ts
	jb.diag.Merge(sw.Diag)
	if err == nil && jb.snapshotPath != "" {
		// The sweep completed fully; its interim snapshot is no longer
		// needed. A partial job keeps its snapshot: the failed points may
		// succeed on a resubmit-with-resume.
		removeSnap = true
		jb.snapshotPath = ""
	}
	s.mu.Unlock()
	if removeSnap {
		_ = os.Remove(snapPath)
	}
	s.finalize(jb, err)
}

// snapshotPathFor is the job's sweep snapshot location ("" without a state
// directory). The id-derived name is what lets a recovered job (same id,
// same state dir) find its own pre-crash progress.
func (s *Server) snapshotPathFor(jb *job) string {
	if s.cfg.StateDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.StateDir, jb.id+".sweep.ckpt")
}
