package main

// The traced run's instruments. Every layer is timed from outside, through
// its public entry points: serve.Hooks wrappers around the real solver
// calls, a pass-through timing checkpoint.FS, and direct replays of the
// mesh, bem and extract stages. Spans live in memory and are written out
// once the run ends.

import (
	"context"
	"encoding/json"
	iofs "io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pdnsim/internal/checkpoint"
	"pdnsim/internal/core"
	"pdnsim/internal/mat"
	"pdnsim/internal/sparam"
	"pdnsim/internal/supervise"

	"pdnsim/internal/serve"
)

// span is one timed interval. Times are nanoseconds since the tracer's
// origin; Parent indexes the enclosing span of the same job (−1 for roots).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    string `json:"job,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	key    string // correlation key, resolved to Job at the end
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer collects spans and the hook-level counters.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span

	retries atomic.Int64 // sweep point re-attempts under supervision
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.origin)) }

func (t *tracer) add(name, key, job string, start, end time.Time, bytes int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: t.at(start), End: t.at(end), Parent: -1, Job: job, Bytes: bytes, key: key})
	t.mu.Unlock()
}

// hooks wraps the daemon's real solver entry points with timing spans.
func (t *tracer) hooks() serve.Hooks {
	return serve.Hooks{
		Extract: func(ctx context.Context, spec *core.BoardSpec, pol supervise.Policy) (*core.Result, supervise.Status, error) {
			t0 := time.Now()
			res, st, err := spec.ExtractSupervisedCtx(ctx, pol)
			t.add("core.extract", "board:"+spec.Name, "", t0, time.Now(), 0)
			if err == nil && fellBack(res) {
				// A zero-length marker, so fallbacks are counted per window
				// like every other span.
				t.add("extract.fallback", "board:"+spec.Name, "", t0, t0, 0)
			}
			return res, st, err
		},
		Sweep: func(ctx context.Context, freqs []float64, lo, hi int, skip []bool, opts sparam.SweepOptions, zAt sparam.ZFunc) ([]*mat.CMatrix, []sparam.PointStatus, error) {
			key := sweepKey(freqs[0], len(freqs))
			timed := func(ctx context.Context, omega float64) (*mat.CMatrix, error) {
				t0 := time.Now()
				z, err := zAt(ctx, omega)
				t.add("extract.portz", key, "", t0, time.Now(), 0)
				return z, err
			}
			t0 := time.Now()
			res, sts, err := sparam.SweepZShardSupervised(ctx, freqs, lo, hi, skip, opts, timed)
			t.add("sparam.shard", key, "", t0, time.Now(), 0)
			for _, s := range sts {
				if s.Attempts > 1 {
					t.retries.Add(int64(s.Attempts - 1))
				}
			}
			return res, sts, err
		},
	}
}

// fellBack reports an extraction whose operator-path reduction failed over
// to the dense path (recorded in the network's diagnostics trail).
func fellBack(res *core.Result) bool {
	if res == nil || res.Network == nil || res.Network.Diag == nil {
		return false
	}
	for _, it := range res.Network.Diag.Items() {
		if it.Check == "operator path" {
			return true
		}
	}
	return false
}

// classify maps a durable path to its class the way internal/fault does:
// journal (and its rewrite staging), manifest, operator cache, checkpoint
// snapshots, other.
func classify(path string) string {
	base := filepath.Base(path)
	name := strings.TrimSuffix(base, ".tmp")
	switch {
	case strings.Contains(name, "journal"):
		if strings.HasSuffix(base, ".tmp") {
			return "journal.rewrite"
		}
		return "journal"
	case strings.Contains(name, "manifest"):
		return "manifest"
	case strings.HasSuffix(name, ".opc"):
		return "cache"
	case strings.Contains(name, "ckpt"), strings.Contains(name, "checkpoint"),
		strings.Contains(name, "snapshot"):
		return "checkpoint"
	default:
		return "other"
	}
}

// jobInName finds a daemon job id in a file name or record payload.
var jobInName = regexp.MustCompile(`j-[0-9]{6}`)

// timingFS is the pass-through timing checkpoint.FS: every call is
// delegated unchanged to the inner filesystem (the process filesystem in
// the benchmark) and timed. It never drops, reorders or fakes an operation,
// so durability is exactly the inner FS's.
type timingFS struct {
	inner checkpoint.FS
	t     *tracer
}

func (f *timingFS) record(class, op, path string, t0 time.Time, bytes int64, payload []byte) {
	job := jobInName.FindString(filepath.Base(path))
	if job == "" && payload != nil {
		job = jobInName.FindString(string(payload))
	}
	key := ""
	if class == "cache" {
		key = "fp:" + strings.TrimSuffix(strings.TrimSuffix(filepath.Base(path), ".tmp"), ".opc")
	}
	f.t.add("checkpoint."+class+"."+op, key, job, t0, time.Now(), bytes)
}

func (f *timingFS) OpenFile(name string, flag int, perm iofs.FileMode) (checkpoint.File, error) {
	t0 := time.Now()
	h, err := f.inner.OpenFile(name, flag, perm)
	f.record(classify(name), "open", name, t0, 0, nil)
	if err != nil {
		return nil, err
	}
	return &timingFile{inner: h, fs: f, path: name}, nil
}

func (f *timingFS) Open(name string) (checkpoint.File, error) {
	t0 := time.Now()
	h, err := f.inner.Open(name)
	f.record(classify(name), "open", name, t0, 0, nil)
	if err != nil {
		return nil, err
	}
	return &timingFile{inner: h, fs: f, path: name}, nil
}

func (f *timingFS) ReadFile(name string) ([]byte, error) {
	t0 := time.Now()
	b, err := f.inner.ReadFile(name)
	f.record(classify(name), "read", name, t0, int64(len(b)), nil)
	return b, err
}

func (f *timingFS) Rename(oldpath, newpath string) error {
	t0 := time.Now()
	err := f.inner.Rename(oldpath, newpath)
	f.record(classify(newpath), "rename", newpath, t0, 0, nil)
	return err
}

func (f *timingFS) Remove(name string) error {
	t0 := time.Now()
	err := f.inner.Remove(name)
	f.record(classify(name), "remove", name, t0, 0, nil)
	return err
}

func (f *timingFS) Stat(name string) (iofs.FileInfo, error) { return f.inner.Stat(name) }

func (f *timingFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := f.inner.SyncDir(dir)
	f.record("dir", "sync", dir, t0, 0, nil)
	return err
}

// timingFile times the write, sync and truncate path of one handle.
type timingFile struct {
	inner checkpoint.File
	fs    *timingFS
	path  string
}

func (h *timingFile) Read(p []byte) (int, error) { return h.inner.Read(p) }
func (h *timingFile) Close() error               { return h.inner.Close() }

func (h *timingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := h.inner.Write(p)
	h.fs.record(classify(h.path), "write", h.path, t0, int64(n), p)
	return n, err
}

func (h *timingFile) Sync() error {
	t0 := time.Now()
	err := h.inner.Sync()
	h.fs.record(classify(h.path), "sync", h.path, t0, 0, nil)
	return err
}

func (h *timingFile) Truncate(size int64) error {
	t0 := time.Now()
	err := h.inner.Truncate(size)
	h.fs.record(classify(h.path), "truncate", h.path, t0, 0, nil)
	return err
}

// parentKind names the span kind that encloses a span of the given name:
// job → queue/run → solver hooks and storage → per-point port solves.
func parentKind(name string) string {
	switch name {
	case "job":
		return ""
	case "serve.queue", "serve.run":
		return "job"
	case "extract.portz":
		return "sparam.shard"
	default:
		return "serve.run"
	}
}

// resolve maps correlation keys to job ids and links every span of a job to
// the innermost enclosing span of its parent kind (falling back to the job
// span: a write-ahead accept record lands before the run starts).
func (t *tracer) resolve(keyToJob map[string]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byJob := map[string][]int{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Job == "" && s.key != "" {
			s.Job = keyToJob[s.key]
		}
		if s.Job != "" {
			byJob[s.Job] = append(byJob[s.Job], i)
		}
	}
	find := func(idx []int, s *span, kind string) int {
		best := -1
		for _, j := range idx {
			p := &t.spans[j]
			if p.Name != kind || p == s || p.Start > s.Start || s.End > p.End {
				continue
			}
			if best < 0 || p.dur() < t.spans[best].dur() {
				best = j
			}
		}
		return best
	}
	for _, idx := range byJob {
		for _, i := range idx {
			s := &t.spans[i]
			kind := parentKind(s.Name)
			if kind == "" {
				continue
			}
			s.Parent = find(idx, s, kind)
			if s.Parent < 0 && kind != "job" {
				s.Parent = find(idx, s, "job")
			}
		}
	}
}

// union returns the total length covered by a set of intervals.
func union(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	end = -1 << 62
	for _, v := range iv {
		if v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// selfTime summarises spans by name: count, total and self time (the span's
// duration minus the union of its children's).
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make([][][2]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	agg := map[string]*selfTime{}
	for i, s := range t.spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
		}
		a.Count++
		a.TotalMS += ms(s.dur())
		a.SelfMS += ms(s.dur() - union(kids[i]))
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfMS > out[b].SelfMS })
	return out
}

// write stores every span and the self-time summary as JSON.
func (t *tracer) write(path string, summary []selfTime) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	blob, err := json.Marshal(map[string]any{"self_time": summary, "spans": t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// windowSpans returns every span that started inside [from, to).
func (t *tracer) windowSpans(from, to time.Time) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, b := t.at(from), t.at(to)
	var out []span
	for _, s := range t.spans {
		if s.Start >= a && s.Start < b {
			out = append(out, s)
		}
	}
	return out
}
