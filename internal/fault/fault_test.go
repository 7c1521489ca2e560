package fault

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"pdnsim/internal/checkpoint"
	"pdnsim/internal/simerr"
)

func TestParseScheduleGrammar(t *testing.T) {
	s, err := ParseSchedule("seed=7;journal.append:eio{times=3};checkpoint.*:latency{delay=5ms,p=0.5}")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	if s.Seed != 7 {
		t.Fatalf("Seed = %d, want 7", s.Seed)
	}
	if len(s.Rules) != 2 {
		t.Fatalf("len(Rules) = %d, want 2", len(s.Rules))
	}
	// journal.append is an alias for the append path's fsync.
	if got := s.Rules[0]; got.Point != "journal.sync" || got.Mode != EIO || got.Times != 3 {
		t.Fatalf("rule[0] = %+v, want journal.sync eio times=3", got)
	}
	if got := s.Rules[1]; got.Point != "checkpoint.*" || got.Mode != Latency ||
		got.Delay != 5*time.Millisecond || got.P != 0.5 {
		t.Fatalf("rule[1] = %+v, want checkpoint.* latency delay=5ms p=0.5", got)
	}
}

func TestParseScheduleDefaultsSeed(t *testing.T) {
	s, err := ParseSchedule("cache.put:enospc")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	if s.Seed != DefaultSeed {
		t.Fatalf("Seed = %d, want DefaultSeed %d", s.Seed, DefaultSeed)
	}
}

func TestParseScheduleRejectsMalformedSpecs(t *testing.T) {
	for _, spec := range []string{
		"",                             // no rules
		"seed=9",                       // seed but no rules
		"journal.append",               // not point:mode
		"journal.append:frob",          // unknown mode
		"journal.append:eio{p=2}",      // probability out of range
		"journal.append:eio{times=0}",  // non-positive count
		"journal.append:eio{after=-1}", // negative count
		"journal.append:eio{nope=1}",   // unknown parameter
		"journal.append:eio{p=0.5",     // unterminated block
		"x:eio;seed=3",                 // seed not first
		":eio",                         // empty point
		"journal.append:latency{delay=bogus}",
	} {
		if _, err := ParseSchedule(spec); err == nil {
			t.Errorf("ParseSchedule(%q) accepted, want error", spec)
		} else if !errors.Is(err, simerr.ErrBadInput) {
			t.Errorf("ParseSchedule(%q) error %v, want ErrBadInput class", spec, err)
		}
	}
}

func TestAliasesResolveToRealPoints(t *testing.T) {
	for alias, point := range Aliases {
		s, err := ParseSchedule(alias + ":eio")
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", alias, err)
		}
		if s.Rules[0].Point != point {
			t.Errorf("alias %q resolved to %q, want %q", alias, s.Rules[0].Point, point)
		}
	}
}

// decisions drives one injector through a fixed operation sequence and
// returns which operations faulted.
func decisions(in *Injector, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = in.Decide("journal.sync", "jobs.journal", "sync").Err != nil
	}
	return out
}

func TestInjectorIsDeterministicPerSeed(t *testing.T) {
	s, err := ParseSchedule("seed=42;journal.append:eio{p=0.4}")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	a := decisions(NewInjector(s), 100)
	b := decisions(NewInjector(s), 100)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical injectors", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == 100 {
		t.Fatalf("p=0.4 fired %d/100 times; want a nontrivial split", fired)
	}
}

func TestInjectorAfterAndTimes(t *testing.T) {
	s, err := ParseSchedule("journal.append:eio{after=2,times=3}")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	got := decisions(NewInjector(s), 8)
	want := []bool{false, false, true, true, true, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decisions = %v, want %v", got, want)
		}
	}
}

func TestInjectorCountsByPoint(t *testing.T) {
	s, err := ParseSchedule("journal.append:eio{times=2}")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	in := NewInjector(s)
	decisions(in, 5)
	if in.Total() != 2 {
		t.Fatalf("Total = %d, want 2", in.Total())
	}
	if got := in.Injected()["journal.sync"]; got != 2 {
		t.Fatalf("Injected[journal.sync] = %d, want 2", got)
	}
}

func TestInjectedErrorsCarryErrnoAndPoint(t *testing.T) {
	s, err := ParseSchedule("journal.append:enospc")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	d := NewInjector(s).Decide("journal.sync", "jobs.journal", "sync")
	if !errors.Is(d.Err, syscall.ENOSPC) {
		t.Fatalf("error %v does not unwrap to ENOSPC", d.Err)
	}
	// Corrupt must classify an injected error as a filesystem failure, not
	// data corruption — otherwise chaos runs would delete healthy files.
	if checkpoint.Corrupt(d.Err) {
		t.Fatalf("Corrupt(%v) = true, want false for an injected I/O error", d.Err)
	}
}

func TestClassify(t *testing.T) {
	for path, want := range map[string]string{
		"/state/jobs.journal":        "journal",
		"/state/jobs.journal.tmp":    "journal.rewrite",
		"/state/ab12cd.opc":          "cache",
		"/state/ab12cd.opc.tmp":      "cache",
		"/state/j-000001.sweep.ckpt": "checkpoint",
		"/state/board.snapshot":      "checkpoint",
		"/state/notes.txt":           "other",
	} {
		if got := classify(path); got != want {
			t.Errorf("classify(%q) = %q, want %q", path, got, want)
		}
	}
}

// installSchedule parses spec, installs a fault-wrapped filesystem, and
// restores the real one at cleanup.
func installSchedule(t *testing.T, spec string) *Injector {
	t.Helper()
	s, err := ParseSchedule(spec)
	if err != nil {
		t.Fatalf("ParseSchedule(%q): %v", spec, err)
	}
	in := NewInjector(s)
	restore := checkpoint.SetFS(WrapFS(checkpoint.OS(), in))
	t.Cleanup(restore)
	return in
}

func TestWrapFSFailsJournalAppendSync(t *testing.T) {
	dir := t.TempDir()
	in := installSchedule(t, "journal.append:eio{times=1}")
	j, err := checkpoint.OpenJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	defer j.Close()
	if err := j.Append("k", map[string]int{"n": 1}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Append under journal.append:eio = %v, want EIO", err)
	}
	if in.Total() != 1 {
		t.Fatalf("Total = %d, want 1", in.Total())
	}
	// The rule is exhausted; the next append succeeds and must be the only
	// record on disk (the failed append's bytes were healed away).
	if err := j.Append("k", map[string]int{"n": 2}); err != nil {
		t.Fatalf("Append after fault cleared: %v", err)
	}
	recs, truncated, err := checkpoint.ReplayJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil || truncated {
		t.Fatalf("ReplayJournal: recs=%v truncated=%v err=%v", recs, truncated, err)
	}
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want exactly the post-fault append", len(recs))
	}
}

func TestWrapFSTornWriteLeavesPartialLineAndPoisonsHeal(t *testing.T) {
	dir := t.TempDir()
	// Torn is a *write* mode; target the write op directly (tearing the
	// fsync would have no bytes to tear).
	in := installSchedule(t, "journal.write:torn{times=1}")
	path := filepath.Join(dir, "jobs.journal")
	j, err := checkpoint.OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	defer j.Close()
	if err := j.Append("k", map[string]int{"n": 1}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn Append = %v, want EIO", err)
	}
	// Half the line reached the disk and the poisoned Truncate kept the
	// self-heal from removing it.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if fi.Size() == 0 {
		t.Fatalf("torn write left no bytes; want a partial line on disk")
	}
	if in.Total() != 1 {
		t.Fatalf("Total = %d, want 1 (the truncate poison is not a schedule firing)", in.Total())
	}
	// The tail is unhealed: appends fail fast with the sentinel.
	if err := j.Append("k", map[string]int{"n": 2}); !errors.Is(err, checkpoint.ErrTailUnhealed) {
		t.Fatalf("Append on unhealed tail = %v, want ErrTailUnhealed", err)
	}
	// Rewrite rebuilds the file and clears the condition.
	if err := j.Rewrite(nil); err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if err := j.Append("k", map[string]int{"n": 3}); err != nil {
		t.Fatalf("Append after Rewrite: %v", err)
	}
	recs, truncated, err := checkpoint.ReplayJournal(path)
	if err != nil || truncated || len(recs) != 1 {
		t.Fatalf("after heal: recs=%d truncated=%v err=%v, want 1 clean record", len(recs), truncated, err)
	}
}

func TestWrapFSLatencyDelaysButSucceeds(t *testing.T) {
	dir := t.TempDir()
	installSchedule(t, "checkpoint.save.fsync:latency{delay=30ms}")
	path := filepath.Join(dir, "b.ckpt")
	start := time.Now()
	if err := checkpoint.Save(path, "k", map[string]int{"n": 1}); err != nil {
		t.Fatalf("Save under latency: %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("Save took %v, want >= 30ms of injected latency", d)
	}
	var out map[string]int
	if err := checkpoint.Load(path, "k", &out); err != nil || out["n"] != 1 {
		t.Fatalf("Load after latency save: %v %v", out, err)
	}
}

func TestWrapFSFaultsCheckpointSaveRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b.ckpt")
	// A good save first, then a faulted one: the old snapshot must survive.
	if err := checkpoint.Save(path, "k", map[string]int{"n": 1}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	installSchedule(t, "checkpoint.rename:eio")
	if err := checkpoint.Save(path, "k", map[string]int{"n": 2}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Save under rename fault = %v, want EIO", err)
	}
	var out map[string]int
	if err := checkpoint.Load(path, "k", &out); err != nil || out["n"] != 1 {
		t.Fatalf("old snapshot after failed save: %v %v, want n=1 intact", out, err)
	}
}

// Total returns how many faults have been injected so far.
func (in *Injector) Total() int {
	n := 0
	for _, c := range in.Injected() {
		n += c
	}
	return n
}
