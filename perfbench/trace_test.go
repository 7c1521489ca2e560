package main

import (
	"bytes"
	"encoding/json"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pdnsim/internal/checkpoint"
	"pdnsim/internal/serve"
)

// countingFS counts the durable calls that reach the filesystem below it.
type countingFS struct {
	checkpoint.FS
	syncs, dirSyncs atomic.Int64
}

type countingFile struct {
	checkpoint.File
	fs *countingFS
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

func (c *countingFS) OpenFile(name string, flag int, perm iofs.FileMode) (checkpoint.File, error) {
	h, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: h, fs: c}, nil
}

func (c *countingFS) SyncDir(dir string) error {
	c.dirSyncs.Add(1)
	return c.FS.SyncDir(dir)
}

// smallDaemonRun pushes three extractions and two sweeps, one at a time,
// through a daemon on dir — traced (timing FS over the counting FS, timing
// hooks) or not — and returns the counting layer and the tracer.
func smallDaemonRun(t *testing.T, dir string, traced bool) (*countingFS, *tracer) {
	t.Helper()
	counter := &countingFS{FS: checkpoint.OS()}
	var tr *tracer
	var hooks serve.Hooks
	var fs checkpoint.FS = counter
	if traced {
		tr = newTracer()
		hooks = tr.hooks()
		fs = &timingFS{inner: counter, t: tr}
	}
	restore := checkpoint.SetFS(fs)
	defer restore()
	d, err := startDaemon(dir, hooks)
	if err != nil {
		t.Fatal(err)
	}
	var ops []daemonOp
	for _, i := range []int{0, 5, 10} {
		b, err := sweepClass.corpusBoard(i)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, daemonOp{body: jobRequest(inputBytes(&b), nil)})
	}
	b, _ := sweepClass.corpusBoard(5)
	for _, sw := range []sweepSpec{{FMin: 2e6, FMax: 2e9, NF: 30}, {FMin: 3e6, FMax: 1e9, NF: 17}} {
		ops = append(ops, daemonOp{body: jobRequest(inputBytes(&b), &sw), sweep: true})
	}
	for _, op := range ops {
		if r := d.runJob(op.body, op.sweep); !r.ok() {
			d.stop()
			t.Fatalf("job ended %q: %v %s", r.status.State, r.err, r.status.Error)
		}
	}
	d.stop()
	return counter, tr
}

// stateDigest summarises a state directory: every file name, the bytes of
// every cache entry, and the journal's records with their timestamps
// removed, sorted (shard records of one job may interleave differently).
func stateDigest(t *testing.T, dir string) (names []string, cache map[string][]byte, journal []string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache = map[string][]byte{}
	for _, e := range entries {
		names = append(names, e.Name())
		if strings.HasSuffix(e.Name(), ".opc") {
			if cache[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	recs, truncated, err := checkpoint.ReplayJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil || truncated {
		t.Fatalf("journal replay: truncated=%v err=%v", truncated, err)
	}
	for _, r := range recs {
		var p map[string]any
		if err := json.Unmarshal(r.Payload, &p); err != nil {
			t.Fatal(err)
		}
		delete(p, "accepted")
		delete(p, "expires")
		line, _ := json.Marshal(p)
		journal = append(journal, r.Kind+" "+string(line))
	}
	sort.Strings(journal)
	return names, cache, journal
}

func TestTracingLeavesSameDurableState(t *testing.T) {
	root := t.TempDir()
	plainDir, tracedDir := filepath.Join(root, "plain"), filepath.Join(root, "traced")
	plainFS, _ := smallDaemonRun(t, plainDir, false)
	tracedFS, tr := smallDaemonRun(t, tracedDir, true)

	n1, c1, j1 := stateDigest(t, plainDir)
	n2, c2, j2 := stateDigest(t, tracedDir)
	if strings.Join(n1, ",") != strings.Join(n2, ",") {
		t.Fatalf("state files differ:\nuntraced %v\ntraced   %v", n1, n2)
	}
	for name, b := range c1 {
		if !bytes.Equal(b, c2[name]) {
			t.Fatalf("cache entry %s differs between traced and untraced runs", name)
		}
	}
	if strings.Join(j1, "\n") != strings.Join(j2, "\n") {
		t.Fatalf("journal records differ:\nuntraced %v\ntraced   %v", j1, j2)
	}

	// Every fsync the daemon asked for reached the filesystem below the
	// timing layer. (Snapshot writes coalesce by timing, so the two runs'
	// totals may differ by a write; each journal append is one fsync in both.)
	var timedSyncs, timedDirSyncs int64
	for _, s := range tr.spans {
		switch {
		case s.Name == "checkpoint.dir.sync":
			timedDirSyncs++
		case strings.HasSuffix(s.Name, ".sync"):
			timedSyncs++
		}
	}
	if timedSyncs == 0 || timedSyncs != tracedFS.syncs.Load() || timedDirSyncs != tracedFS.dirSyncs.Load() {
		t.Fatalf("timing FS saw %d syncs / %d dir syncs, the OS layer %d / %d",
			timedSyncs, timedDirSyncs, tracedFS.syncs.Load(), tracedFS.dirSyncs.Load())
	}
	for _, fs := range []*countingFS{plainFS, tracedFS} {
		if fs.syncs.Load() < int64(len(j1)) {
			t.Fatalf("%d fsyncs for %d journal records", fs.syncs.Load(), len(j1))
		}
	}
}

func TestSpansNestUnderTheirJob(t *testing.T) {
	tr := newTracer()
	t0 := tr.origin
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr.add("job", "", "j-000001", at(0), at(100), 0)
	tr.add("serve.run", "", "j-000001", at(10), at(100), 0)
	tr.add("sparam.shard", "sweep:k", "", at(20), at(50), 0)
	tr.add("extract.portz", "sweep:k", "", at(21), at(22), 0)
	tr.add("checkpoint.journal.write", "", "j-000001", at(2), at(3), 0)
	tr.resolve(map[string]string{"sweep:k": "j-000001"})
	want := []int{-1, 0, 1, 2, 0}
	for i, s := range tr.spans {
		if s.Parent != want[i] {
			t.Fatalf("span %s has parent %d, want %d", s.Name, s.Parent, want[i])
		}
	}
	for _, st := range tr.selfTimes() {
		if st.Name == "serve.run" && (st.SelfMS < 59.9 || st.SelfMS > 60.1) {
			t.Fatalf("serve.run self time %.3f ms, want 60", st.SelfMS)
		}
	}
}
