package serve

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"pdnsim/internal/core"
	"pdnsim/internal/diag"
	"pdnsim/internal/extract"
	"pdnsim/internal/mat"
	"pdnsim/internal/simerr"
	"pdnsim/internal/sparam"
)

// JobState is the lifecycle position of one accepted job. Every accepted job
// ends in a terminal state — the daemon's core invariant is that nothing it
// said 202 to is ever silently dropped, not even across a drain.
type JobState string

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: a worker is extracting/sweeping.
	StateRunning JobState = "running"
	// StateDone: completed cleanly; results are available.
	StateDone JobState = "done"
	// StatePartial: completed with some sweep points failed and skipped
	// (simerr.ErrPartial); the surviving results are valid and available.
	// The status API reports this with HTTP 200, not an error status — a
	// partial sweep is a usable result with documented gaps.
	StatePartial JobState = "partial"
	// StateFailed: the solve failed (singular, non-convergent, bad input…);
	// ErrorClass carries the simerr class.
	StateFailed JobState = "failed"
	// StateCancelled: the job's deadline expired or the run was cancelled
	// and no resumable snapshot exists.
	StateCancelled JobState = "cancelled"
	// StateSnapshotted: the job was interrupted (drain, deadline) after its
	// sweep flushed a resumable checkpoint; resubmit with
	// sweep.resume_from = SnapshotPath to pick the work back up.
	StateSnapshotted JobState = "snapshotted"
	// StateFlushed: accepted but never started when a drain began. Its
	// journaled accept record has no finish record, so the next start's
	// Recover resubmits it under its original id.
	StateFlushed JobState = "flushed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	switch s {
	case StateDone, StatePartial, StateFailed, StateCancelled, StateSnapshotted, StateFlushed:
		return true
	}
	return false
}

// awaitsReplay reports whether a job in this state keeps an accept record
// with no finish record in the journal: every non-terminal state, plus
// StateFlushed, which the next start's Recover re-admits. A compacting
// rewrite must keep these jobs' accept records.
func (s JobState) awaitsReplay() bool {
	return !s.Terminal() || s == StateFlushed
}

// SweepSpec asks for an S-parameter sweep of the extracted network.
type SweepSpec struct {
	FMin float64 `json:"fmin_hz"`
	FMax float64 `json:"fmax_hz"`
	NF   int     `json:"nf"`
	Z0   float64 `json:"z0_ohm,omitempty"` // reference impedance; default 50 Ω
	// ResumeFrom restores completed points from the named snapshot — the
	// SnapshotPath of a drained job — so a resubmitted job recomputes only
	// what is missing.
	ResumeFrom string `json:"resume_from,omitempty"`
}

// defaultZ0 is the reference impedance when the sweep spec leaves it zero.
const defaultZ0 = 50.0

// validate normalises and checks the sweep spec.
func (sw *SweepSpec) validate() error {
	if err := sparam.ValidateRange(sw.FMin, sw.FMax, sw.NF); err != nil {
		return err
	}
	if sw.Z0 == 0 {
		sw.Z0 = defaultZ0
	}
	if !finitePos(sw.Z0) {
		return simerr.BadInput("serve: sweep spec", "z0_ohm must be positive and finite, got %g", sw.Z0)
	}
	return nil
}

// JobRequest is the POST /jobs body: a board to extract, an optional sweep
// to run against the extracted network, and an optional per-job deadline.
type JobRequest struct {
	Board      json.RawMessage `json:"board"`
	Sweep      *SweepSpec      `json:"sweep,omitempty"`
	DeadlineMS int64           `json:"deadline_ms,omitempty"`
}

// PointReport is the status-API view of one abnormal sweep point: a point
// that failed and was skipped, or one that needed supervised retries.
type PointReport struct {
	FreqHz     float64 `json:"freq_hz"`
	Attempts   int     `json:"attempts"`
	PerturbRel float64 `json:"perturb_rel,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// SweepReport summarises the sweep half of a job.
type SweepReport struct {
	Points   int `json:"points"`
	Restored int `json:"restored,omitempty"` // points restored from a resume snapshot
	Retried  int `json:"retried,omitempty"`
	Failed   int `json:"failed,omitempty"`
	// Abnormal lists only the points worth a client's attention (failed or
	// retried); healthy points are counted, not enumerated.
	Abnormal []PointReport `json:"abnormal,omitempty"`
}

// JobStatus is the GET /jobs/{id} body.
type JobStatus struct {
	ID         string   `json:"id"`
	State      JobState `json:"state"`
	Board      string   `json:"board,omitempty"`
	Submitted  string   `json:"submitted,omitempty"`
	Started    string   `json:"started,omitempty"`
	Finished   string   `json:"finished,omitempty"`
	DeadlineMS int64    `json:"deadline_ms,omitempty"`

	// ErrorClass is the simerr class token (cli.ErrClass) of the failure;
	// empty for healthy jobs. Partial jobs carry "partial" here while still
	// reporting their results — the error half explains the gaps.
	ErrorClass string `json:"error_class,omitempty"`
	Error      string `json:"error,omitempty"`

	CacheHit      bool `json:"cache_hit,omitempty"`
	CacheRepaired bool `json:"cache_repaired,omitempty"`
	// ExtractAttempts is the supervised extraction's attempt count (1 =
	// clean first try; >1 means regularized retries recovered it).
	ExtractAttempts int `json:"extract_attempts,omitempty"`

	Nodes  int     `json:"nodes,omitempty"`
	Ports  int     `json:"ports,omitempty"`
	CTotal float64 `json:"c_total_f,omitempty"`

	Sweep        *SweepReport `json:"sweep,omitempty"`
	SnapshotPath string       `json:"snapshot_path,omitempty"`
	Warnings     []string     `json:"warnings,omitempty"`

	// Shard progress (sweep jobs only; additive fields, absent for
	// extraction-only jobs). ShardsDone counts completed shards including
	// ones wholly restored from a resume snapshot; Quarantined counts poison
	// shards that exhausted their dispatch attempts — their points appear in
	// Sweep.Abnormal when the job completes.
	ShardsTotal int `json:"shards_total,omitempty"`
	ShardsDone  int `json:"shards_done,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`

	// Durable reports whether the job's crash-recovery records are durably
	// on disk (write-ahead accept record journaled, snapshot writes
	// succeeding). Always false without a state directory. Never
	// omitted: clients must be able to distinguish an explicit false from
	// an old server that does not report durability.
	Durable bool `json:"durable"`
	// LastError is the most recent storage failure that touched this job
	// (journal append, sweep snapshot); empty when none.
	LastError string `json:"last_error,omitempty"`
}

// job is the server-side record. Fields are guarded by Server.mu after
// construction except where noted; the workers mutate them only through
// Server methods.
type job struct {
	id       string
	spec     *core.BoardSpec
	rawBoard json.RawMessage
	sweep    *SweepSpec
	deadline time.Duration
	// fingerprint is the board's content hash, the operator-cache key.
	fingerprint string
	// recovered marks a job resubmitted by Recover after a crash: its sweep
	// auto-resumes from the job's own snapshot when one survived.
	recovered bool

	submitted time.Time
	started   time.Time
	finished  time.Time

	state  JobState
	err    error
	cancel func()          // non-nil while running; used by drain escalation
	ctx    context.Context // job-lifetime context while running; shards derive leases from it

	cacheHit        bool
	cacheRepaired   bool
	extractAttempts int

	nodes, ports int
	ctotal       float64
	netlist      string
	touchstone   string
	network      *extract.Network // extracted network; set once before shards dispatch

	points       []sparam.PointStatus
	snapshotPath string
	diag         *diag.Diagnostics

	// durable and lastErr back JobStatus.Durable/LastError (Server.mu):
	// durable flips true when the accept record is durably journaled, and
	// false again on any storage failure touching this job; lastErr keeps
	// the most recent cause.
	durable bool
	lastErr string

	// Shard bookkeeping (Server.mu). outstanding counts shards not yet
	// resolved — done, cancelled, or quarantined; the worker that resolves
	// the last one finalises the job.
	shardsTotal       int
	shardsDone        int
	shardsQuarantined int
	shardsOutstanding int

	// Sweep point state, guarded by sweepMu — never by Server.mu: shard
	// merges write results while the status API holds Server.mu, and the
	// two must not serialise against each other.
	// Lock order: sweepMu strictly before Server.mu, never the reverse.
	sweepMu sync.Mutex
	freqs   []float64
	results []*mat.CMatrix
	done    []bool

	// Snapshot write coalescing (guarded by sweepMu; snapCond waits on
	// it). Snapshot files are written with sweepMu RELEASED — holding a
	// mutex across an fsync stalls every contender behind disk latency —
	// so durability is tracked by generation instead: a merge bumps
	// snapGen, and flushSweepSnapshot returns once snapWritten (the
	// highest generation a completed write captured) has caught up.
	// snapWriting admits one writer at a time; merges racing a slow write
	// coalesce into the next write instead of queueing one fsync each.
	snapCond    *sync.Cond
	snapGen     int
	snapWritten int
	snapWriting bool
}

// stamp renders a timestamp for the status API ("" when unset).
func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}
