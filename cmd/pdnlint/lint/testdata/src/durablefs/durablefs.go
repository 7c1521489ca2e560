// Package durablefsfix exercises the durable analyzer's rule 3: a rename
// through the checkpoint filesystem seam must be followed by a SyncDir in
// the same function, or a crash can roll the publication back. This fixture
// lives apart from the main durable fixture because it imports the real
// internal/checkpoint package (for the FS seam types), which the
// checkpoint-exemption test could not load under the checkpoint import path
// without an import cycle.
package durablefsfix

import (
	"path/filepath"

	"pdnsim/internal/checkpoint"
)

// Flagged: the rename publishes, but nothing makes the directory entry
// durable.
func badSeamRename(fsys checkpoint.FS, tmp, dst string) error {
	return fsys.Rename(tmp, dst) // want "FS.Rename without a following SyncDir"
}

// Flagged: a dir sync *before* the rename covers the staging, not the
// publication.
func badSyncBeforeRename(fsys checkpoint.FS, tmp, dst string) error {
	if err := fsys.SyncDir(filepath.Dir(dst)); err != nil {
		return err
	}
	return fsys.Rename(tmp, dst) // want "FS.Rename without a following SyncDir"
}

// Accepted: rename, then fsync the parent directory through the seam.
func goodSeamRename(fsys checkpoint.FS, tmp, dst string) error {
	if err := fsys.Rename(tmp, dst); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(dst))
}

// Flagged: the following SyncDir targets an *unrelated* directory — it
// cannot make this rename's publication durable, so it must not silence
// the rule.
func badUnrelatedSyncDir(fsys checkpoint.FS, tmp, dst, other string) error {
	if err := fsys.Rename(tmp, dst); err != nil { // want "FS.Rename without a following SyncDir"
		return err
	}
	return fsys.SyncDir(filepath.Dir(other))
}

// Accepted: the destination is built from dir, and dir itself is what gets
// synced — the filepath.Join spelling of the same barrier.
func goodJoinedDest(fsys checkpoint.FS, dir string) error {
	dst := filepath.Join(dir, "segments.bin")
	if err := fsys.Rename(dst+".tmp", dst); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// Accepted: the destination's parent reaches SyncDir through a local
// variable (one initializer hop).
func goodDirViaLocal(fsys checkpoint.FS, tmp, dst string) error {
	if err := fsys.Rename(tmp, dst); err != nil {
		return err
	}
	dir := filepath.Dir(dst)
	return fsys.SyncDir(dir)
}

// Accepted: a delegating wrapper named Rename implements the seam; the
// publication discipline is its caller's burden.
type wrapFS struct{ inner checkpoint.FS }

func (w wrapFS) Rename(oldpath, newpath string) error {
	return w.inner.Rename(oldpath, newpath)
}
