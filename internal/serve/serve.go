// Package serve is the extraction daemon: a bounded worker pool behind a
// fixed-capacity queue that accepts board extraction and sweep jobs over
// HTTP/JSON and survives every failure mode the solver knows how to name.
// The design goal is robustness, not API surface:
//
//   - Backpressure, not collapse: a full queue sheds load with 429 and a
//     Retry-After estimated from the observed job duration, so saturation
//     degrades service latency for new work instead of memory and tail
//     latency for accepted work.
//   - Deadlines, not hangs: every job runs under a per-job context deadline
//     threaded through ExtractSupervisedCtx and SweepZSupervised, so a
//     pathological solve costs its deadline, never a worker forever.
//   - Isolation, not contagion: per-point supervision (bounded retries with
//     escalating perturbation) and simerr.ErrPartial mean one singular
//     frequency point degrades one job to "partial" — reported with HTTP
//     200 and point-level detail — instead of failing the job, and one
//     failed job never touches its neighbours.
//   - Graceful degradation of the operator cache: extracted networks are
//     cached under a geometry+stackup content hash in the checkpoint
//     envelope; a CRC-failing or truncated entry is evicted and recomputed
//     with a repaired diag warning, never a 500.
//   - Graceful drain: on SIGINT/SIGTERM the daemon stops accepting, lets
//     in-flight jobs finish (or, past the grace deadline, cancels them so
//     their sweeps flush resumable snapshots), flushes never-started jobs
//     (their journaled accept records re-admit them on restart), and exits
//     0. No accepted job is silently dropped — every one ends in a
//     terminal state a client can query.
//   - Crash safety, not just graceful degradation: sweep jobs are split
//     into shards dispatched to the shared pool under per-shard leases, a
//     write-ahead journal (jobs.journal, on the checkpoint envelope)
//     records accept/start/lease/shard-done/finish transitions, and
//     Recover replays the journal on restart so a daemon
//     killed with SIGKILL mid-burst resumes every incomplete job from its
//     last completed shard — bitwise-identical to an uninterrupted run. A
//     shard whose lease expires is requeued with jittered backoff and
//     bounded attempts; one that exhausts them is quarantined as a poison
//     shard and its job completes "partial" with per-point detail instead
//     of hanging or dying.
//
// The package is the library half; cmd/pdnserve wires it to flags, signals
// and an http.Server, and cmd/pdnload drives it for latency baselines.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"pdnsim/internal/checkpoint"
	"pdnsim/internal/cli"
	"pdnsim/internal/core"
	"pdnsim/internal/diag"
	"pdnsim/internal/mat"
	"pdnsim/internal/simerr"
	"pdnsim/internal/sparam"
	"pdnsim/internal/supervise"
)

// Control-flow sentinels of the admission path. They are intentionally not
// simerr solve classes: they describe the daemon's disposition towards a
// request, not a numerical failure, and they never cross the package
// boundary except through the HTTP status mapping in handlers.go.
var (
	// ErrBusy: the queue is full; the client should retry after the
	// estimate the handler attaches (HTTP 429).
	ErrBusy = errors.New("serve: queue full")
	// ErrDraining: the daemon is shutting down and no longer accepts work
	// (HTTP 503).
	ErrDraining = errors.New("serve: draining")
	// ErrUnknownJob: no such job ID (HTTP 404).
	ErrUnknownJob = errors.New("serve: unknown job")
)

// Defaults. Every knob has a working zero value so `serve.New(serve.Config{})`
// is a functional in-memory daemon.
const (
	// DefaultQueueCap bounds the accepted-but-not-started backlog. 16 keeps
	// worst-case queue latency at ~8 average jobs per worker on the default
	// two workers — past that, shedding with a Retry-After is kinder to the
	// client than an unbounded wait.
	DefaultQueueCap = 16
	// DefaultDeadline bounds a job that asked for no deadline. Two minutes
	// is an order of magnitude above the heaviest committed benchmark board
	// sweep, so it only fires on runaway work.
	DefaultDeadline = 2 * time.Minute
	// MaxDeadline caps client-requested deadlines so one job cannot pin a
	// worker for an afternoon.
	MaxDeadline = 10 * time.Minute
	// DefaultCheckpointEvery is the sweep snapshot cadence for daemon jobs.
	// Service jobs are much smaller than batch runs (checkpoint.DefaultEvery
	// is tuned for million-step transients), and a drained job should lose
	// at most a few points of work.
	DefaultCheckpointEvery = 8
	// DefaultMaxJobs bounds the terminal-job history retained for the
	// status API; the oldest terminal records are pruned past it so a
	// long-lived daemon's memory stays flat.
	DefaultMaxJobs = 1000
	// DefaultShardLease bounds one dispatch of one sweep shard. 30 s is two
	// orders of magnitude above a shard of the heaviest committed benchmark
	// board (DefaultShardPoints ≈ checkpoint-cadence points at ~100 ms each),
	// so it fires only on a genuinely hung solve — and long before the job
	// deadline would, which is the point: the lease frees the worker and
	// requeues the shard while the job keeps its other shards' progress.
	DefaultShardLease = 30 * time.Second
	// DefaultShardAttempts bounds dispatches of one shard (first try plus
	// requeues after lease expiry or a panic). Three mirrors the supervise
	// attempt budget: transient stalls (machine load, a neighbour pinning
	// the cores) get two more chances; a deterministic hang is quarantined.
	DefaultShardAttempts = 3
)

// ewmaAlpha is the smoothing factor of the job-duration estimate behind
// Retry-After: 0.3 weights the last ~5 jobs, tracking workload shifts
// without jittering on one outlier.
const ewmaAlpha = 0.3

// Config tunes the daemon. The zero value serves from memory with two
// workers and no persistence.
type Config struct {
	// Workers is the worker-pool size. Each worker runs one job at a time;
	// the dense kernels inside a job parallelise themselves under the
	// internal/mat worker budget, so a few workers saturate the machine.
	// Zero selects min(2, GOMAXPROCS).
	Workers int
	// QueueCap is the accepted-but-not-started backlog bound. Zero selects
	// DefaultQueueCap.
	QueueCap int
	// DefaultDeadline applies to jobs that request none; MaxDeadline caps
	// what a job may request. Zeros select the package defaults.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// StateDir, when non-empty, enables persistence: the operator/factor
	// cache, per-job sweep snapshots, and the write-ahead job journal all
	// live here. Empty serves from memory (no cache, drain cannot snapshot).
	StateDir string
	// CheckpointEvery is the sweep snapshot cadence (points between
	// snapshots) for daemon jobs. Zero selects DefaultCheckpointEvery.
	CheckpointEvery int
	// MaxJobs bounds retained terminal job records. Zero selects
	// DefaultMaxJobs.
	MaxJobs int
	// Policy supervises extractions and sweep points. The zero value
	// applies the package supervise defaults. Its backoff schedule (with
	// full jitter) also paces shard requeues after lease expiry.
	Policy supervise.Policy
	// ShardPoints is the number of sweep points per shard. Zero selects
	// CheckpointEvery, aligning the unit of dispatch with the snapshot
	// cadence: every completed shard persists its points, so a crash loses
	// at most the shards in flight.
	ShardPoints int
	// ShardLease bounds one dispatch of one shard; an expired lease cancels
	// the shard's solve (freeing the worker) and requeues it. Zero selects
	// DefaultShardLease.
	ShardLease time.Duration
	// ShardAttempts bounds dispatches of one shard before it is quarantined
	// as a poison shard. Zero selects DefaultShardAttempts.
	ShardAttempts int
	// StoragePolicy bounds the retries of one recovery-critical storage
	// write (journal append, sweep snapshot, cache entry)
	// before the daemon degrades durability. Only MaxAttempts and Backoff
	// are honoured — RetryOn is fixed to the storage-failure class and
	// perturbation does not apply. Zeros select DefaultStorageAttempts and
	// DefaultStorageBackoff; a negative Backoff retries without waiting
	// (tests).
	StoragePolicy supervise.Policy
	// RearmProbe is the degraded-durability probe cadence. Zero selects
	// DefaultRearmProbe.
	RearmProbe time.Duration
	// Logf, when set, receives durability transition logs (degrade, re-arm).
	// cmd/pdnserve routes it to stderr; nil is silent.
	Logf func(format string, args ...any)
}

// Hooks are the solver entry points the worker calls, injectable so the
// chaos suite can substitute failing, slow, or counting implementations
// without touching the daemon's control flow. Zero fields select the real
// solver.
type Hooks struct {
	Extract func(ctx context.Context, spec *core.BoardSpec, pol supervise.Policy) (*core.Result, supervise.Status, error)
	// Sweep evaluates one shard — the half-open range [lo, hi) of freqs —
	// returning per-point S matrices and statuses of length hi−lo. skip is
	// indexed by absolute frequency index and marks points already complete
	// (restored or finished by an earlier lease of the same shard); they
	// must be left nil/zero-attempts. The scheduler owns aggregation.
	Sweep func(ctx context.Context, freqs []float64, lo, hi int, skip []bool, opts sparam.SweepOptions, zAt sparam.ZFunc) ([]*mat.CMatrix, []sparam.PointStatus, error)
}

// Stats is a snapshot of the daemon's counters. Assemblies counts actual
// extraction runs (the assembly-counter hook): a warm cache hit serves a
// repeat query without incrementing it, which is exactly what the cache
// tests assert.
type Stats struct {
	Accepted    int64 `json:"accepted"`
	Rejected    int64 `json:"rejected"` // shed with 429 (queue full)
	Completed   int64 `json:"completed"`
	Assemblies  int64 `json:"assemblies"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// CacheRepairs counts corrupt cache entries evicted and recomputed.
	CacheRepairs int64 `json:"cache_repairs"`
	// Shards counts shard dispatches (requeues included); LeaseExpiries
	// counts dispatches cut off by their lease watchdog; Quarantined counts
	// poison shards that exhausted their attempts.
	Shards        int64 `json:"shards"`
	LeaseExpiries int64 `json:"lease_expiries"`
	Quarantined   int64 `json:"quarantined"`
	// Recovered counts jobs resubmitted by Recover (journal replay);
	// JournalErrors counts write-ahead journal appends that failed
	// (service continues; crash-recovery coverage degrades).
	Recovered     int64 `json:"recovered"`
	JournalErrors int64 `json:"journal_errors"`
	// Durability is the current durability posture (armed | degraded |
	// disabled); DegradeEvents and RearmEvents count its transitions;
	// StorageRetries counts storage-write retries under StoragePolicy;
	// NonDurable counts jobs that reached a terminal state with
	// durable:false.
	Durability     string `json:"durability"`
	DegradeEvents  int64  `json:"degrade_events"`
	RearmEvents    int64  `json:"rearm_events"`
	StorageRetries int64  `json:"storage_retries"`
	NonDurable     int64  `json:"non_durable"`
	Queued         int    `json:"queued"`
	Running        int    `json:"running"`
}

// DrainReport summarises a completed drain.
type DrainReport struct {
	Finished    int `json:"finished"`    // in-flight jobs that completed during the grace window
	Snapshotted int `json:"snapshotted"` // in-flight jobs cancelled past grace with a resumable snapshot
	Cancelled   int `json:"cancelled"`   // in-flight jobs cancelled past grace without a snapshot
	Flushed     int `json:"flushed"`     // queued jobs flushed, never started; their accept records re-admit them
}

// Server is the daemon. Create with New, start workers with Start, attach
// Handler to an http.Server, and stop with Drain.
type Server struct {
	cfg   Config
	hooks Hooks
	cache *opCache // nil when StateDir is empty

	mu        sync.Mutex
	queue     chan *job
	jobs      map[string]*job
	order     []string // insertion order, for pruning and listing
	seq       int
	accepting bool
	draining  bool
	drained   chan struct{} // closed when the first Drain completes
	report    DrainReport
	running   int
	ewmaNs    float64
	stats     Stats

	// Shard scheduling. Workers pull from shardQ before the job queue
	// (finish started work first); cond (on mu) wakes them when a shard is
	// pushed, a job is enqueued, a job finalises, or the queue closes.
	shardQ      []*shardTask
	cond        *sync.Cond
	queueClosed bool

	// journal is the write-ahead job journal (nil without a StateDir, or
	// when opening it failed — the re-arm probe keeps trying to open one).
	journal *checkpoint.Journal

	// Durability state machine (see durability.go). runCtx is the pool
	// context Start received — the cancellation parent of storage retries
	// and the probe. probeStop ends the probe goroutine at drain;
	// probeStopped guards its single close.
	runCtx       context.Context
	durState     DurabilityState
	durLastErr   string
	probeStop    chan struct{}
	probeStopped bool
	// storagePol is the normalised StoragePolicy (set once in New).
	storagePol supervise.Policy

	// saveSweep writes a sweep snapshot (sparam.SaveSweepCheckpoint in
	// production; tests substitute a blocking fake to prove the write runs
	// with sweepMu released). Set once in New, immutable afterwards.
	saveSweep func(path string, freqs []float64, z0 float64, done []bool, results []*mat.CMatrix) error

	wg      sync.WaitGroup
	started bool
}

// New builds a Server. Hooks fields left nil select the real solver.
func New(cfg Config, hooks Hooks) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = min(2, runtime.GOMAXPROCS(0))
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = DefaultDeadline
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = MaxDeadline
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = DefaultCheckpointEvery
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	if hooks.Extract == nil {
		hooks.Extract = func(ctx context.Context, spec *core.BoardSpec, pol supervise.Policy) (*core.Result, supervise.Status, error) {
			return spec.ExtractSupervisedCtx(ctx, pol)
		}
	}
	if hooks.Sweep == nil {
		hooks.Sweep = sparam.SweepZShardSupervised
	}
	if cfg.ShardPoints <= 0 {
		cfg.ShardPoints = cfg.CheckpointEvery
	}
	if cfg.ShardLease <= 0 {
		cfg.ShardLease = DefaultShardLease
	}
	if cfg.ShardAttempts <= 0 {
		cfg.ShardAttempts = DefaultShardAttempts
	}
	if cfg.RearmProbe <= 0 {
		cfg.RearmProbe = DefaultRearmProbe
	}
	pol := cfg.StoragePolicy
	if pol.MaxAttempts <= 0 {
		pol.MaxAttempts = DefaultStorageAttempts
	}
	if pol.Backoff == 0 {
		pol.Backoff = DefaultStorageBackoff
	}
	pol.PerturbRel = -1 // perturbation is a solver concept, not a storage one
	pol.RetryOn = storageFailure
	s := &Server{
		cfg:        cfg,
		hooks:      hooks,
		queue:      make(chan *job, cfg.QueueCap),
		jobs:       make(map[string]*job),
		accepting:  true,
		drained:    make(chan struct{}),
		saveSweep:  sparam.SaveSweepCheckpoint,
		durState:   DurabilityDisabled,
		probeStop:  make(chan struct{}),
		storagePol: pol,
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.StateDir != "" {
		s.cache = &opCache{dir: cfg.StateDir}
	}
	return s
}

// Start launches the worker pool. ctx is the lifetime parent of every job's
// context: cancelling it hard-cancels all work (Drain is the graceful path).
// Start is not idempotent; call it once.
func (s *Server) Start(ctx context.Context) {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.runCtx = ctx
	workers := s.cfg.Workers
	s.mu.Unlock()
	if s.cfg.StateDir != "" {
		// Best-effort: persistence degrades to in-memory service if the
		// directory cannot be created; the daemon must come up regardless.
		_ = os.MkdirAll(s.cfg.StateDir, 0o755)
		_, err := s.openJournal()
		s.mu.Lock()
		if err == nil {
			s.durState = DurabilityArmed
		} else if s.durState == DurabilityDisabled {
			// An unopenable journal degrades durability, never service; the
			// probe goroutine keeps retrying the open.
			s.durState = DurabilityDegraded
			s.durLastErr = fmt.Sprintf("journal open: %v", err)
			s.stats.DegradeEvents++
		}
		s.mu.Unlock()
		if err != nil {
			s.logf("durability degraded (journal open): %v — jobs run with durable:false; re-arm probe every %v", err, s.cfg.RearmProbe)
		}
		s.wg.Add(1)
		go s.rearmProbe()
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker(ctx)
	}
}

// Submit validates and enqueues a job, returning its ID. A full queue
// returns ErrBusy (shed load, HTTP 429); a draining server ErrDraining
// (503); a malformed request a simerr.ErrBadInput-class error (400). ctx is
// the *request* context — it gates only admission, not the job's run.
func (s *Server) Submit(ctx context.Context, req *JobRequest) (string, error) {
	if err := simerr.CheckCtx(ctx, "serve: submit"); err != nil {
		return "", err
	}
	if req == nil || len(req.Board) == 0 {
		return "", simerr.BadInput("serve: submit", "missing board description")
	}
	spec, err := core.ParseBoard(req.Board)
	if err != nil {
		return "", err
	}
	if req.Sweep != nil {
		if err := req.Sweep.validate(); err != nil {
			return "", err
		}
	}
	if req.DeadlineMS < 0 {
		return "", simerr.BadInput("serve: submit", "deadline_ms must be non-negative, got %d", req.DeadlineMS)
	}
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
		if deadline > s.cfg.MaxDeadline {
			deadline = s.cfg.MaxDeadline
		}
	}

	s.mu.Lock()
	if !s.accepting {
		s.mu.Unlock()
		return "", ErrDraining
	}
	s.seq++
	jb := &job{
		id:          fmt.Sprintf("j-%06d", s.seq),
		spec:        spec,
		rawBoard:    append([]byte(nil), req.Board...),
		sweep:       req.Sweep,
		deadline:    deadline,
		fingerprint: spec.Fingerprint(),
		submitted:   time.Now(),
		state:       StateQueued,
		diag:        diag.New(),
	}
	select {
	case s.queue <- jb:
	default:
		s.seq-- // the ID was never issued
		s.stats.Rejected++
		s.mu.Unlock()
		return "", ErrBusy
	}
	s.jobs[jb.id] = jb
	s.order = append(s.order, jb.id)
	s.stats.Accepted++
	s.pruneLocked()
	s.cond.Signal()
	s.mu.Unlock()

	// Write-ahead accept record, before the 202 reaches the client: a crash
	// from here on replays the job. (A worker may complete the job before
	// this lands — the replay treats a finish record as terminal regardless
	// of record order, so the race is harmless.) Only a durably journaled
	// accept record lets the job claim durable:true.
	if s.journalAppend(jb, journalKindAccept, acceptRecord(jb)) {
		s.mu.Lock()
		// A later storage failure may already have stripped the claim (a
		// fast worker can finish the job before this lands); never
		// resurrect it over a recorded error.
		if jb.lastErr == "" {
			jb.durable = true
		}
		s.mu.Unlock()
	}
	return jb.id, nil
}

// RetryAfter estimates, in whole seconds, when a shed client should retry:
// the queued+running backlog times the smoothed job duration, divided across
// the worker pool. Never less than one second.
func (s *Server) RetryAfter() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	avg := s.ewmaNs
	if avg <= 0 {
		avg = float64(time.Second) // no history yet: assume a short job
	}
	backlog := float64(len(s.queue) + s.running + 1)
	secs := int(math.Ceil(avg * backlog / float64(s.cfg.Workers) / float64(time.Second)))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Durability = string(s.durState)
	st.Queued = len(s.queue)
	st.Running = s.running
	return st
}

// Ready reports whether the daemon accepts new jobs (readyz).
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accepting
}

// JobStatus returns the public status of a job.
func (s *Server) JobStatus(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return s.statusLocked(jb), nil
}

// Jobs lists the status of every retained job, oldest first.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		if jb, ok := s.jobs[id]; ok {
			out = append(out, s.statusLocked(jb))
		}
	}
	return out
}

// Netlist returns the extracted equivalent-circuit netlist of a completed
// job ("" until extraction finished).
func (s *Server) Netlist(id string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	if !ok {
		return "", ErrUnknownJob
	}
	return jb.netlist, nil
}

// Touchstone returns the sweep result of a completed job ("" until a sweep
// finished; partial jobs return the surviving points).
func (s *Server) Touchstone(id string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	if !ok {
		return "", ErrUnknownJob
	}
	return jb.touchstone, nil
}

// statusLocked renders a job's public status. Caller holds s.mu.
func (s *Server) statusLocked(jb *job) JobStatus {
	st := JobStatus{
		ID:              jb.id,
		State:           jb.state,
		Board:           jb.spec.Name,
		Submitted:       stamp(jb.submitted),
		Started:         stamp(jb.started),
		Finished:        stamp(jb.finished),
		DeadlineMS:      jb.deadline.Milliseconds(),
		CacheHit:        jb.cacheHit,
		CacheRepaired:   jb.cacheRepaired,
		ExtractAttempts: jb.extractAttempts,
		Nodes:           jb.nodes,
		Ports:           jb.ports,
		CTotal:          jb.ctotal,
		SnapshotPath:    jb.snapshotPath,
		Durable:         jb.durable,
		LastError:       jb.lastErr,
	}
	if jb.err != nil {
		st.ErrorClass = cli.ErrClass(jb.err)
		st.Error = jb.err.Error()
	}
	for _, it := range jb.diag.Items() {
		if it.Severity >= diag.Warning {
			st.Warnings = append(st.Warnings, it.String())
		}
	}
	if jb.shardsTotal > 0 {
		st.ShardsTotal = jb.shardsTotal
		st.ShardsDone = jb.shardsDone
		st.Quarantined = jb.shardsQuarantined
	}
	// The per-point report is rendered once the job is terminal: mid-run the
	// statuses are still being merged shard by shard (the shard counters
	// above are the live progress signal).
	if len(jb.points) > 0 && jb.state.Terminal() {
		rep := &SweepReport{Points: len(jb.points)}
		for _, p := range jb.points {
			switch {
			case p.Err != nil:
				rep.Failed++
				rep.Abnormal = append(rep.Abnormal, PointReport{
					FreqHz: p.Freq, Attempts: p.Attempts, PerturbRel: p.PerturbRel, Error: p.Err.Error()})
			case p.Attempts > 1:
				rep.Retried++
				rep.Abnormal = append(rep.Abnormal, PointReport{
					FreqHz: p.Freq, Attempts: p.Attempts, PerturbRel: p.PerturbRel})
			case p.Attempts == 0:
				rep.Restored++
			}
		}
		st.Sweep = rep
	}
	return st
}

// pruneLocked drops the oldest terminal job records past cfg.MaxJobs so a
// long-lived daemon's status history stays bounded. Running and queued jobs
// are never pruned — the no-silent-drop invariant holds for every accepted
// job still in flight. Caller holds s.mu.
func (s *Server) pruneLocked() {
	excess := len(s.order) - s.cfg.MaxJobs
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		jb, ok := s.jobs[id]
		if !ok {
			continue
		}
		if excess > 0 && jb.state.Terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// worker pulls shards first, then queued jobs, until the drain closes the
// queue and every started job has resolved. A worker that begins a sweep job
// returns to the pool once the job's shards are queued — the shards execute
// on whichever workers are free, and the one resolving the last shard
// finalises the job.
func (s *Server) worker(ctx context.Context) {
	defer s.wg.Done()
	for {
		t, jb, ok := s.nextWork()
		switch {
		case !ok:
			return
		case t != nil:
			s.runShard(ctx, t)
		default:
			s.runJob(ctx, jb)
		}
	}
}

// nextWork blocks until a shard, a queued job, or pool shutdown is ready.
// Shards outrank jobs: they are pieces of already-started work, and
// finishing started jobs before admitting new ones keeps queue latency
// honest and makes drains convergent. Shutdown requires the queue closed,
// no running jobs, and no queued shards — a running job may still push
// shards (including via a backoff timer), so workers park on the cond until
// the last job finalises.
func (s *Server) nextWork() (*shardTask, *job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if len(s.shardQ) > 0 {
			t := s.shardQ[0]
			s.shardQ[0] = nil
			s.shardQ = s.shardQ[1:]
			return t, nil, true
		}
		select {
		case jb, open := <-s.queue:
			if open {
				return nil, jb, true
			}
			s.queueClosed = true
		default:
		}
		if s.queueClosed && s.running == 0 && len(s.shardQ) == 0 {
			return nil, nil, false
		}
		s.cond.Wait()
	}
}

// runJob starts one job under its deadline: extraction (cache-aware), then —
// for sweep jobs — shard fan-out. Every exit path eventually lands the job
// in a terminal state via finalize; errors are recorded, never returned: the
// worker pool must survive anything the solver does.
func (s *Server) runJob(ctx context.Context, jb *job) {
	s.mu.Lock()
	if s.draining {
		// The drain flusher races the workers for queued jobs; ones a
		// worker wins would prolong the drain, so they are flushed here
		// with the same disposition.
		s.flushJobLocked(jb)
		s.cond.Broadcast()
		s.mu.Unlock()
		return
	}
	jb.state = StateRunning
	jb.started = time.Now()
	s.running++
	jctx, cancel := context.WithTimeout(ctx, jb.deadline)
	jb.cancel = cancel
	jb.ctx = jctx
	s.mu.Unlock()

	s.journalAppend(jb, journalKindStart, jobStartRec{ID: jb.id, Fingerprint: jb.fingerprint})

	err := s.extract(jctx, jb)
	if err != nil || jb.sweep == nil {
		s.finalize(jb, err)
		return
	}
	if err := s.beginSweep(jb); err != nil {
		s.finalize(jb, err)
	}
}

// finalize lands a job in its terminal state, updates the pool accounting
// and the drain report, releases the deadline timer, and journals the finish
// record. It runs exactly once per started job — from runJob for extraction
// jobs and sweep-setup failures, from the worker resolving the last shard
// otherwise.
func (s *Server) finalize(jb *job, err error) {
	s.mu.Lock()
	cancel := jb.cancel
	jb.cancel = nil
	jb.ctx = nil
	jb.finished = time.Now()
	jb.err = err
	s.running--
	s.stats.Completed++
	dur := float64(jb.finished.Sub(jb.started))
	if s.ewmaNs <= 0 {
		s.ewmaNs = dur
	} else {
		s.ewmaNs = ewmaAlpha*dur + (1-ewmaAlpha)*s.ewmaNs
	}
	switch {
	case err == nil:
		jb.state = StateDone
	case errors.Is(err, simerr.ErrPartial):
		jb.state = StatePartial
	case errors.Is(err, simerr.ErrCancelled):
		if jb.snapshotPath != "" {
			jb.state = StateSnapshotted
		} else {
			jb.state = StateCancelled
		}
	default:
		jb.state = StateFailed
	}
	if s.draining {
		switch jb.state {
		case StateSnapshotted:
			s.report.Snapshotted++
		case StateCancelled:
			s.report.Cancelled++
		default:
			s.report.Finished++
		}
	}
	state := jb.state
	s.cond.Broadcast()
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	finOK := s.journalAppend(jb, journalKindFinish, jobFinishRec{
		ID: jb.id, State: string(state), Class: cli.ErrClass(err)})
	// The job's durability claim is final only after the finish record's
	// fate is known: a failed append strips it (in journalAppend), and a
	// durable finish record establishes it on its own — replay treats a
	// finished id as settled regardless of record order, so a fast worker
	// finalising before Submit's accept append returns must not report the
	// job non-durable over a claim the accept path simply has not made yet.
	s.mu.Lock()
	if finOK && jb.lastErr == "" {
		jb.durable = true
	}
	if s.durState != DurabilityDisabled && !jb.durable {
		s.stats.NonDurable++
	}
	s.mu.Unlock()
}

// extract runs the cache-aware extraction half of a job and stores the
// network on jb; side results land on jb under s.mu.
func (s *Server) extract(ctx context.Context, jb *job) error {
	fp := jb.fingerprint
	nw, hit, repaired := s.cache.get(fp)
	s.mu.Lock()
	jb.cacheHit = hit
	jb.cacheRepaired = repaired
	if repaired {
		s.stats.CacheRepairs++
		jb.diag.Warnf("serve", "operator cache", 0, 0, true,
			"cache entry %s failed its integrity check; evicted and recomputed from the board description", fp[:12])
	}
	if hit {
		s.stats.CacheHits++
	} else {
		s.stats.CacheMisses++
	}
	s.mu.Unlock()

	if !hit {
		s.mu.Lock()
		s.stats.Assemblies++
		s.mu.Unlock()
		res, st, err := s.hooks.Extract(ctx, jb.spec, s.cfg.Policy)
		s.mu.Lock()
		jb.extractAttempts = st.Attempts
		s.mu.Unlock()
		if err != nil {
			return err
		}
		nw = res.Network
		if s.degraded() {
			// Degraded durability skips cache writes: serve from memory
			// rather than hammer a sick volume per extraction.
			s.mu.Lock()
			jb.diag.Warnf("serve", "operator cache", 0, 0, false,
				"degraded durability: cache write skipped (serving uncached)")
			s.mu.Unlock()
		} else if perr := s.storageRetry(func() error { return s.cache.put(fp, nw) }); perr != nil {
			// A cache write failure degrades future latency, not this job.
			s.mu.Lock()
			jb.diag.Warnf("serve", "operator cache", 0, 0, false,
				"cache write failed (serving uncached): %v", perr)
			s.mu.Unlock()
			s.degradeOn("operator cache write", perr)
		}
	}

	nl := nw.Netlist(jb.spec.Name)
	s.mu.Lock()
	jb.diag.Merge(nw.Diag)
	jb.nodes = nw.NumNodes()
	jb.ports = nw.NumPorts
	jb.ctotal = nw.TotalCapacitance()
	jb.netlist = nl
	jb.network = nw
	s.mu.Unlock()
	return nil
}

// Drain gracefully shuts the daemon down: stop accepting, flush queued jobs,
// let in-flight jobs finish — and once ctx expires, cancel them so their
// sweeps flush resumable snapshots. Its last act journals any flushed job
// whose accept record is missing (see journalFlushed). Drain always
// terminates: in-flight work is context-aware by contract, and the
// escalation path cancels it. Safe to call concurrently; every caller
// observes the first drain's report.
func (s *Server) Drain(ctx context.Context) DrainReport {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.drained
		s.mu.Lock()
		rep := s.report
		s.mu.Unlock()
		return rep
	}
	s.draining = true
	s.accepting = false
	if !s.probeStopped {
		s.probeStopped = true
		close(s.probeStop)
	}
	s.mu.Unlock()

	s.flushQueued()
	close(s.queue)
	s.mu.Lock()
	s.queueClosed = true
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.cancelInFlight()
		<-done
	}

	s.journalFlushed()
	s.mu.Lock()
	rep := s.report
	j := s.journal
	s.journal = nil
	s.mu.Unlock()
	if j != nil {
		// Flushed jobs keep their accept records (no finish is journaled for
		// them): a restarted daemon's Recover re-admits them.
		_ = j.Close()
	}
	close(s.drained)
	return rep
}

// flushQueued empties the queue of never-started jobs, marking them flushed.
func (s *Server) flushQueued() {
	for {
		select {
		case jb := <-s.queue:
			s.mu.Lock()
			s.flushJobLocked(jb)
			s.mu.Unlock()
		default:
			return
		}
	}
}

// flushJobLocked marks a never-started job as flushed. Caller holds s.mu.
func (s *Server) flushJobLocked(jb *job) {
	jb.state = StateFlushed
	jb.finished = time.Now()
	jb.err = simerr.Tagf(simerr.ErrCancelled, "serve: drained before start; recovery on the next start resubmits it")
	s.report.Flushed++
}

// journalFlushed is the drain's last chance to persist flushed jobs: it
// appends a fresh accept record for every flushed job still durable:false —
// its accept append failed, or was skipped while degraded — so the next
// Recover re-admits it. Flushed jobs that are already durable need nothing:
// their accept records have no finish record. It scans job state rather
// than the drain's own flush, so a job a worker dequeued and flushed is
// covered too, and it runs even while degraded, opening the journal first
// if it never opened. Call after in-flight work settles, before the journal
// closes.
func (s *Server) journalFlushed() {
	if s.cfg.StateDir == "" {
		return
	}
	var pending []catchup
	s.mu.Lock()
	for _, id := range s.order {
		if jb, ok := s.jobs[id]; ok && jb.state == StateFlushed && !jb.durable {
			pending = append(pending, catchup{jb: jb, lastErr: jb.lastErr})
		}
	}
	s.mu.Unlock()
	restored := s.catchUpAccepts(pending, "drain")
	s.mu.Lock()
	s.stats.NonDurable += int64(len(pending) - len(restored))
	s.mu.Unlock()
}

// cancelInFlight cancels every running job (drain escalation past the grace
// deadline): their ctx-aware solves abort and checkpoint-enabled sweeps
// flush a final resumable snapshot on the way out.
func (s *Server) cancelInFlight() {
	s.mu.Lock()
	cancels := make([]func(), 0, s.running)
	for _, jb := range s.jobs {
		if jb.cancel != nil {
			cancels = append(cancels, jb.cancel)
		}
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// finitePos reports a positive, finite float.
func finitePos(x float64) bool {
	return x > 0 && !math.IsInf(x, 0)
}
