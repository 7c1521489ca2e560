package main

// The daemon half of the benchmark: an in-process serve.Server behind its
// own HTTP handler on a loopback listener, driven by closed-loop clients
// that speak the same HTTP/JSON as cmd/pdnload.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"pdnsim/internal/serve"
)

// Load shape: one process, at most two closed-loop clients against two
// daemon workers, matching the two cores the benchmark is sized for.
// extract-dense runs one client: its dense LU and Schur kernels already
// spread over both cores, and a second client makes every job's latency
// depend on which stratum its neighbour is solving. The operator path's CG
// solves are serial, so extract-operator needs two clients to load both
// cores; sweeps fan shards out to both workers and run two clients as well.
const (
	clients       = 2
	daemonWorkers = 2
	// pollEvery paces status polls. Latency is read from the job's own
	// finished stamp, so the interval only bounds how long a client idles
	// after its job ends; 4 ms keeps the polling CPU to a few percent.
	pollEvery = 4 * time.Millisecond
)

// daemon is one running serve.Server with its listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	dir    string
	cancel context.CancelFunc
	served chan struct{}
	client *http.Client
}

// startDaemon creates the state directory and brings a daemon up on a
// loopback port.
func startDaemon(dir string, hooks serve.Hooks) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Workers: daemonWorkers, StateDir: dir}, hooks)
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(ctx)
		cancel()
		return nil, err
	}
	d := &daemon{
		srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), dir: dir,
		cancel: cancel, served: make(chan struct{}),
		client: &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients},
		},
	}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln)
	}()
	// The daemon is up once it answers readiness over HTTP, as a client or
	// load balancer would first see it.
	resp, err := d.client.Get(d.base + "/readyz")
	if err == nil {
		drainBody(resp)
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains the daemon, closes the listener and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.Drain(ctx)
	_ = d.hs.Shutdown(ctx)
	<-d.served
	d.client.CloseIdleConnections()
	d.cancel()
}

// jobStatus is the subset of GET /jobs/{id} the benchmark reads.
type jobStatus struct {
	ID        string  `json:"id"`
	State     string  `json:"state"`
	Submitted string  `json:"submitted"`
	Started   string  `json:"started"`
	Finished  string  `json:"finished"`
	CacheHit  bool    `json:"cache_hit"`
	Nodes     int     `json:"nodes"`
	Ports     int     `json:"ports"`
	CTotal    float64 `json:"c_total_f"`
	Error     string  `json:"error"`
}

func (s *jobStatus) terminal() bool {
	switch s.State {
	case "done", "partial", "failed", "cancelled", "snapshotted", "flushed":
		return true
	}
	return false
}

// stamps parses the job's submitted/started/finished stamps.
func (s *jobStatus) stamps() (sub, start, fin time.Time, err error) {
	if sub, err = time.Parse(time.RFC3339Nano, s.Submitted); err != nil {
		return
	}
	if start, err = time.Parse(time.RFC3339Nano, s.Started); err != nil {
		return
	}
	fin, err = time.Parse(time.RFC3339Nano, s.Finished)
	return
}

// opRecord is one attempted daemon op as the client saw it.
type opRecord struct {
	input      int    // index into the run's input sequence
	key        string // correlation key of the op's solver calls
	post       time.Time
	latency    time.Duration // POST to the job's finished stamp
	status     jobStatus
	touchstone string
	shed       bool
	err        error
}

// ok reports an op that ended done with no transport or admission failure.
func (o *opRecord) ok() bool { return o.err == nil && !o.shed && o.status.State == "done" }

// errShed marks a submission the daemon refused with 429.
var errShed = errors.New("shed with 429")

// runJob submits one job and polls it to a terminal state; with sweep set it
// also fetches the Touchstone result.
func (d *daemon) runJob(body []byte, sweep bool) (rec opRecord) {
	rec.post = time.Now()
	resp, err := d.client.Post(d.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		drainBody(resp)
		rec.shed = true
		rec.err = errShed
		return rec
	}
	var acc struct {
		ID string `json:"id"`
	}
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		rec.err = fmt.Errorf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return rec
	}
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if err != nil || acc.ID == "" {
		rec.err = fmt.Errorf("submit: undecodable accept body (%v)", err)
		return rec
	}
	for {
		if err := d.getJSON("/jobs/"+acc.ID, &rec.status); err != nil {
			rec.err = err
			return rec
		}
		if rec.status.terminal() {
			break
		}
		//pdnlint:ignore ctxflow a closed-loop client is never cancelled mid-job; the daemon's per-job deadline bounds the poll loop
		time.Sleep(pollEvery)
	}
	fin, err := time.Parse(time.RFC3339Nano, rec.status.Finished)
	if err != nil {
		rec.err = fmt.Errorf("job %s finished stamp: %w", acc.ID, err)
		return rec
	}
	rec.latency = fin.Sub(rec.post)
	if sweep && rec.status.State == "done" {
		rec.touchstone, rec.err = d.getText("/jobs/" + acc.ID + "/touchstone")
	}
	return rec
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (d *daemon) getText(path string) (string, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return string(raw), err
}

func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// daemonOp is one input of a daemon workload: the request body and the key
// its solver calls are correlated by in the traced run.
type daemonOp struct {
	body  []byte
	key   string
	sweep bool
}

// closedLoop runs ops through the daemon with `callers` clients, each
// waiting for its reply before taking its next input, until the deadline
// passes or the inputs run out. Caller c takes inputs c, c+callers, …; the
// generators lay inputs out in groups of `clients` of equal cost, so two
// callers run matched work side by side and every op meets the same kind of
// neighbour whatever the seed. It returns the attempted ops in input order
// and the wall time from the first submit to the last reply.
func (d *daemon) closedLoop(ops []daemonOp, deadline time.Time, callers int) ([]opRecord, time.Duration) {
	var mu sync.Mutex
	var recs []opRecord
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := c; j < len(ops) && time.Now().Before(deadline); j += callers {
				rec := d.runJob(ops[j].body, ops[j].sweep)
				rec.input, rec.key = j, ops[j].key
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	sort.Slice(recs, func(a, b int) bool { return recs[a].input < recs[b].input })
	return recs, wall
}

// jobRequest renders a POST /jobs body.
func jobRequest(board []byte, sw *sweepSpec) []byte {
	req := map[string]any{"board": json.RawMessage(board)}
	if sw != nil {
		req["sweep"] = map[string]any{"fmin_hz": sw.FMin, "fmax_hz": sw.FMax, "nf": sw.NF}
	}
	return inputBytes(req)
}

// sweepKey correlates a sweep job with its shard solves: the daemon hands
// the sweep hook the job's frequency grid, whose first point and length
// identify the plan.
func sweepKey(fmin float64, nf int) string { return fmt.Sprintf("sweep:%g/%d", fmin, nf) }
