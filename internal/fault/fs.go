package fault

import (
	iofs "io/fs"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"pdnsim/internal/checkpoint"
)

// WrapFS wraps an inner checkpoint.FS (usually the process filesystem via
// checkpoint.SetFS's default) so every durable operation consults the
// injector first. Install with checkpoint.SetFS(fault.WrapFS(...)).
func WrapFS(inner checkpoint.FS, in *Injector) checkpoint.FS {
	return &faultFS{inner: inner, in: in}
}

// faultFS is the interposing filesystem.
type faultFS struct {
	inner checkpoint.FS
	in    *Injector
}

// classify maps a path to its fault class, keyed on the durable-path markers
// the pdnlint durable analyzer uses, so the fault vocabulary and the static
// contract stay aligned. The analyzer also flags "manifest" paths, but no
// durable file carries that name any more, so it has no fault class here.
// Staged ".tmp" files inherit their target's class, except the journal's
// rewrite staging, which gets its own class so schedules can fault appends
// and compactions independently.
func classify(path string) string {
	base := filepath.Base(path)
	name := strings.TrimSuffix(base, ".tmp")
	switch {
	case strings.Contains(name, "journal"):
		if strings.HasSuffix(base, ".tmp") {
			return "journal.rewrite"
		}
		return "journal"
	case strings.HasSuffix(name, ".opc"):
		return "cache"
	case strings.Contains(name, "ckpt"), strings.Contains(name, "checkpoint"),
		strings.Contains(name, "snapshot"):
		return "checkpoint"
	default:
		return "other"
	}
}

// decide consults the injector for (path, op) and applies a latency decision
// in place; the caller handles error/torn decisions.
func (f *faultFS) decide(path, op string) Decision {
	d := f.in.Decide(classify(path)+"."+op, path, op)
	if d.Delay > 0 {
		// Deliberately not a bare time.Sleep: every wait in this module goes
		// through a timer select, and this layer has no ctx to observe.
		t := time.NewTimer(d.Delay)
		<-t.C
	}
	return d
}

func (f *faultFS) OpenFile(name string, flag int, perm iofs.FileMode) (checkpoint.File, error) {
	if d := f.decide(name, "open"); d.Err != nil {
		return nil, d.Err
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: inner, fs: f, path: name}, nil
}

func (f *faultFS) Open(name string) (checkpoint.File, error) {
	if d := f.decide(name, "openr"); d.Err != nil {
		return nil, d.Err
	}
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: inner, fs: f, path: name}, nil
}

func (f *faultFS) ReadFile(name string) ([]byte, error) {
	if d := f.decide(name, "read"); d.Err != nil {
		return nil, d.Err
	}
	return f.inner.ReadFile(name)
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if d := f.decide(newpath, "rename"); d.Err != nil {
		return d.Err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *faultFS) Remove(name string) error {
	if d := f.decide(name, "remove"); d.Err != nil {
		return d.Err
	}
	return f.inner.Remove(name)
}

func (f *faultFS) Stat(name string) (iofs.FileInfo, error) {
	// Stats are never faulted: they are cheap metadata reads whose failure
	// modes add nothing to the durability story.
	return f.inner.Stat(name)
}

func (f *faultFS) SyncDir(dir string) error {
	if d := f.in.Decide("dir.sync", dir, "dirsync"); d.Err != nil {
		return d.Err
	}
	return f.inner.SyncDir(dir)
}

// faultFile interposes on the write/sync/truncate path of one open handle.
type faultFile struct {
	inner checkpoint.File
	fs    *faultFS
	path  string
	// truncPoison, when set, fails the next Truncate once: a torn write
	// poisons the handle so the journal's tail self-heal fails the way it
	// would on a genuinely sick disk, leaving the torn tail on disk.
	truncPoison atomic.Pointer[error]
}

func (f *faultFile) Read(p []byte) (int, error) { return f.inner.Read(p) }
func (f *faultFile) Close() error               { return f.inner.Close() }

func (f *faultFile) Write(p []byte) (int, error) {
	d := f.fs.decide(f.path, "write")
	switch {
	case d.Torn:
		n, werr := f.inner.Write(p[:len(p)/2])
		if werr != nil {
			// The real write failed: nothing (or less than the torn half)
			// reached the file, so reporting the torn contract would assert
			// bytes that do not exist. Surface the genuine error instead and
			// leave the handle unpoisoned.
			return n, werr
		}
		f.truncPoison.Store(&d.Err)
		return n, d.Err
	case d.Err != nil:
		return 0, d.Err
	}
	return f.inner.Write(p)
}

func (f *faultFile) Sync() error {
	if d := f.fs.decide(f.path, "sync"); d.Err != nil {
		// For PartialFsync the data already reached the file via Write; the
		// distinction from EIO-on-sync is the caller's problem — both mean
		// "you may not claim durability".
		return d.Err
	}
	return f.inner.Sync()
}

func (f *faultFile) Truncate(size int64) (err error) {
	if perr := f.truncPoison.Swap(nil); perr != nil {
		return *perr
	}
	if d := f.fs.decide(f.path, "truncate"); d.Err != nil {
		return d.Err
	}
	return f.inner.Truncate(size)
}
