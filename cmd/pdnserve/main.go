// Command pdnserve runs the extraction daemon: an HTTP/JSON service that
// accepts board extraction and sweep jobs, executes them on a bounded worker
// pool behind a fixed-capacity queue, and survives overload, slow solves, and
// shutdown without losing accepted work.
//
// Usage:
//
//	pdnserve [-addr :8844] [-workers 2] [-queue 16] [-state-dir /var/lib/pdnsim] \
//	         [-deadline 2m] [-max-deadline 10m] [-drain-grace 30s] \
//	         [-shard-points 8] [-shard-lease 30s] [-shard-attempts 3] [-no-recover] \
//	         [-rearm-probe 2s] [-fault-schedule "seed=7;journal.append:eio{times=3}"]
//
// API (see internal/serve):
//
//	GET  /healthz              liveness
//	GET  /readyz               readiness (503 while draining)
//	POST /jobs                 submit {"board": {...}, "sweep": {...}, "deadline_ms": N}
//	GET  /jobs                 list job statuses
//	GET  /jobs/{id}            job status (partial results are 200 + detail)
//	GET  /jobs/{id}/netlist    equivalent-circuit netlist
//	GET  /jobs/{id}/touchstone sweep S-parameters
//
// Robustness contract: a full queue sheds load with 429 + Retry-After; every
// job runs under a deadline; repeat queries against an unchanged board serve
// from a CRC-guarded operator cache that evicts and recomputes damaged
// entries. On SIGINT/SIGTERM the daemon stops accepting, gives in-flight jobs
// -drain-grace to finish, then cancels them so sweeps flush resumable
// snapshots, marks never-started jobs flushed (their journaled accept
// records re-admit them on the next start), and exits 0. A second signal
// aborts immediately.
//
// Crash safety: with a -state-dir, sweep jobs run as leased shards under a
// write-ahead job journal, and on startup the daemon replays the journal,
// automatically resubmitting every accepted-but-unfinished job — crash-
// interrupted or drain-flushed — under its original id; each resumes from
// its last completed shard. Use -no-recover to start cold without
// replaying it.
//
// Degraded durability: when state-dir writes keep failing after bounded
// retries, the daemon does not crash or shed jobs — it keeps executing them
// and marks their statuses durable:false with a last_error, readyz reports
// "degraded", and a background probe (period -rearm-probe) re-arms full
// durability once storage answers again. -fault-schedule injects seeded
// storage faults under the checkpoint filesystem for chaos testing; never
// set it in production.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pdnsim/internal/checkpoint"
	"pdnsim/internal/cli"
	"pdnsim/internal/fault"
	"pdnsim/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8844", "HTTP listen address")
	workers := flag.Int("workers", 0, "worker pool size (0 = min(2, GOMAXPROCS))")
	queue := flag.Int("queue", 0, fmt.Sprintf("accepted-job queue capacity before shedding with 429 (0 = %d)", serve.DefaultQueueCap))
	stateDir := flag.String("state-dir", "", "directory for the operator cache, sweep snapshots and the job journal (empty = in-memory only)")
	deadline := flag.Duration("deadline", 0, fmt.Sprintf("default per-job deadline (0 = %v)", serve.DefaultDeadline))
	maxDeadline := flag.Duration("max-deadline", 0, fmt.Sprintf("cap on client-requested deadlines (0 = %v)", serve.MaxDeadline))
	maxJobs := flag.Int("max-jobs", 0, fmt.Sprintf("terminal job records retained for the status API (0 = %d)", serve.DefaultMaxJobs))
	drainGrace := flag.Duration("drain-grace", 30*time.Second, "how long a drain lets in-flight jobs finish before cancelling them into snapshots")
	shardPoints := flag.Int("shard-points", 0, fmt.Sprintf("sweep points per dispatch shard; each completed shard is snapshotted (0 = %d)", serve.DefaultShardPoints))
	shardLease := flag.Duration("shard-lease", 0, fmt.Sprintf("per-shard lease: a dispatch exceeding it is cancelled and requeued (0 = %v)", serve.DefaultShardLease))
	shardAttempts := flag.Int("shard-attempts", 0, fmt.Sprintf("dispatches per shard before quarantine (0 = %d)", serve.DefaultShardAttempts))
	noRecover := flag.Bool("no-recover", false, "skip replaying the job journal on startup")
	rearmProbe := flag.Duration("rearm-probe", 0, fmt.Sprintf("how often degraded durability probes storage to re-arm (0 = %v)", serve.DefaultRearmProbe))
	faultSchedule := flag.String("fault-schedule", "", "TESTING ONLY: seeded storage-fault schedule injected under the checkpoint filesystem, e.g. \"seed=7;journal.append:eio{times=3}\"")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: pdnserve [flags]")
		flag.PrintDefaults()
		os.Exit(cli.ExitUsage)
	}

	if *faultSchedule != "" {
		sched, err := fault.ParseSchedule(*faultSchedule)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pdnserve: -fault-schedule: %v\n", err)
			os.Exit(cli.ExitUsage)
		}
		// Installed for the process lifetime; the daemon's storage now lies
		// on purpose. Loud by design — this must never survive into a
		// production deployment unnoticed.
		checkpoint.SetFS(fault.WrapFS(checkpoint.OS(), fault.NewInjector(sched)))
		fmt.Fprintf(os.Stderr, "pdnserve: WARNING: storage-fault injection active (%s)\n", *faultSchedule)
	}

	srv := serve.New(serve.Config{
		Workers:         *workers,
		QueueCap:        *queue,
		StateDir:        *stateDir,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		MaxJobs:         *maxJobs,
		ShardPoints:     *shardPoints,
		ShardLease:      *shardLease,
		ShardAttempts:   *shardAttempts,
		RearmProbe:      *rearmProbe,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "pdnserve: "+format+"\n", args...)
		},
	}, serve.Hooks{})

	// Jobs live under their own lifetime context, not the signal context: a
	// signal triggers the graceful drain below, and only the drain's
	// escalation (past -drain-grace) cancels in-flight work.
	jobCtx, jobCancel := context.WithCancel(context.Background())
	defer jobCancel()
	srv.Start(jobCtx)

	if !*noRecover && *stateDir != "" {
		rep, err := srv.Recover()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pdnserve: recovery: journal replay failed (serving without it): %v\n", err)
		}
		if rep.TruncatedTail {
			fmt.Fprintf(os.Stderr, "pdnserve: recovery: journal ended in a torn record (crash signature); replayed the valid prefix\n")
		}
		for _, id := range rep.Resubmitted {
			fmt.Fprintf(os.Stderr, "pdnserve: recovery: resubmitted job %s\n", id)
		}
		for _, f := range rep.Failed {
			fmt.Fprintf(os.Stderr, "pdnserve: recovery: unrecoverable job dropped: %s\n", f)
		}
		for _, id := range rep.SkippedBusy {
			fmt.Fprintf(os.Stderr, "pdnserve: recovery: job %s did not fit the queue; it stays journaled for the next start\n", id)
		}
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.ListenAndServe() }()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "pdnserve: listening on %s (state-dir=%q)\n", *addr, *stateDir)

	select {
	case err := <-httpErr:
		fmt.Fprintf(os.Stderr, "pdnserve: http server failed: %v\n", err)
		os.Exit(cli.ExitIO)
	case <-sigCtx.Done():
	}
	// Past this point a second signal kills the process the hard way.
	stop()

	fmt.Fprintf(os.Stderr, "pdnserve: signal received; draining (grace %v)\n", *drainGrace)
	graceCtx, graceCancel := context.WithTimeout(context.Background(), *drainGrace)
	defer graceCancel()
	rep := srv.Drain(graceCtx)

	// The status API stays up through the drain so clients can observe their
	// jobs' terminal states; shut HTTP down only once the drain settled.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "pdnserve: http shutdown: %v\n", err)
	}

	out, _ := json.Marshal(rep)
	fmt.Fprintf(os.Stderr, "pdnserve: drained: %s\n", out)
	// Exit 0 by contract: a graceful drain is a success, whatever mix of
	// finished, snapshotted and flushed jobs it produced — all of them are
	// accounted for and resumable.
}
