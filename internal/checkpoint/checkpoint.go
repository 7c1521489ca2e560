// Package checkpoint persists the state of long-running solver loops —
// transient time marching, FDTD leapfrogging, frequency sweeps — so a run
// killed partway (SIGTERM, crash, timeout) can resume from its last snapshot
// instead of starting over. The paper's flow is dominated by exactly such
// loops (per-ω extraction sweeps, §5 time-domain SSN validation), and a
// multi-hour production run must not be all-or-nothing.
//
// Snapshots are:
//
//   - versioned: the envelope carries a schema Version and a Kind string
//     ("tran", "fdtd", "sweep"); loading a snapshot from a different schema
//     or of the wrong kind fails with a simerr.ErrBadInput-class error
//     instead of silently resuming garbage state;
//   - checksummed: the payload carries a CRC-32C; any bit flip or truncation
//     is detected at load time and reported as simerr.ErrBadInput;
//   - atomically written: the file is staged as path+".tmp", synced, and
//     renamed over the target, so a crash mid-write leaves either the old
//     snapshot or the new one, never a torn file.
//
// The engines own their payload schemas (what exactly a "tran" snapshot
// holds); this package owns the envelope, integrity, and cadence (Policy).
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"path/filepath"

	"pdnsim/internal/simerr"
)

// SameBits reports exact (bitwise) float64 equality. Resume validation
// compares the run configuration a snapshot came from against the current
// one on bit patterns — the contract is "identical run", not "close enough",
// so no tolerance is involved.
func SameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// Magic identifies a pdnsim checkpoint file.
const Magic = "pdnsim-checkpoint"

// Version is the envelope schema version. Bump it when the envelope or any
// engine payload changes incompatibly; Load rejects mismatches as
// simerr.ErrBadInput so an old binary never misinterprets a new snapshot
// (or vice versa).
const Version = 1

// DefaultEvery is the default snapshot cadence when a Policy enables
// checkpointing without choosing one: every 1000 accepted steps/points. At
// typical per-step solve costs this keeps snapshot overhead well under a
// percent while bounding lost work to seconds.
const DefaultEvery = 1000

// ResumeRelTol is the documented resume-determinism contract: a run resumed
// from a snapshot must match the uninterrupted run's waveforms within this
// relative tolerance. Snapshots round-trip float64 state exactly (JSON uses
// shortest-round-trip formatting) and the engines restore every state
// variable the arithmetic depends on, so in practice resumed runs are
// bitwise identical; the tolerance budgets only for future schema additions
// that may legitimately re-derive cached values. Fault-injection tests
// enforce it.
//
//pdnlint:ignore deadapi documented resume-determinism contract; the circuit, fdtd and sparam resume tests enforce it
const ResumeRelTol = 1e-12

// Policy configures periodic checkpointing of a long run. The zero value
// disables checkpointing.
type Policy struct {
	// Path is the snapshot file. Empty disables checkpointing.
	Path string
	// Every is the number of accepted steps (transient, FDTD) or completed
	// points (sweeps) between snapshots. Zero or negative selects
	// DefaultEvery.
	Every int
}

// Enabled reports whether the policy writes snapshots.
func (p Policy) Enabled() bool { return p.Path != "" }

// Stride returns the effective snapshot cadence.
func (p Policy) Stride() int {
	if p.Every <= 0 {
		return DefaultEvery
	}
	return p.Every
}

// Due reports whether a snapshot is due after completing step n (1-based).
func (p Policy) Due(n int) bool {
	return p.Enabled() && n > 0 && n%p.Stride() == 0
}

// Corrupt classifies a Load failure: true for an integrity or schema
// violation of the file itself (bit flip, truncation, magic/version/kind
// mismatch, undecodable payload — the simerr.ErrBadInput-class failures),
// false for a filesystem failure (missing file, permissions) or any other
// error. Callers holding *caches* of recomputable state branch on this to
// degrade gracefully: a corrupt cache entry is evicted and recomputed with a
// repaired-warning, while a filesystem failure is surfaced — deleting a file
// because the disk hiccuped would throw away good state.
func Corrupt(err error) bool {
	var pe *fs.PathError
	if errors.As(err, &pe) {
		return false
	}
	return errors.Is(err, simerr.ErrBadInput)
}

// envelope is the on-disk framing around an engine payload.
type envelope struct {
	Magic   string          `json:"magic"`
	Version int             `json:"version"`
	Kind    string          `json:"kind"`
	CRC     uint32          `json:"crc32c"`
	Payload json.RawMessage `json:"payload"`
}

// castagnoli is the CRC-32C table (the Castagnoli polynomial has better
// error-detection properties than IEEE and hardware support on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Save atomically writes payload as a snapshot of the given kind: the
// payload is JSON-encoded, checksummed, framed in the versioned envelope,
// staged at path+".tmp", synced, renamed over path, and sealed with a parent
// directory fsync — the rename lives in the directory, and without syncing
// it a crash can lose the just-published file entirely even though its bytes
// were durable. Filesystem failures surface with their *fs.PathError cause
// preserved (%w) so the CLI layer maps them to its I/O exit code.
func Save(path, kind string, payload any) error {
	if path == "" {
		return simerr.BadInput("checkpoint: save", "empty snapshot path")
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return &simerr.BadInputError{Op: "checkpoint: save", Detail: "payload not serialisable", Err: err}
	}
	env := envelope{
		Magic:   Magic,
		Version: Version,
		Kind:    kind,
		CRC:     crc32.Checksum(body, castagnoli),
		Payload: body,
	}
	blob, err := json.Marshal(&env)
	if err != nil {
		return &simerr.BadInputError{Op: "checkpoint: save", Detail: "envelope not serialisable", Err: err}
	}
	fsys := filesystem()
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, osWriteFlags, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	// Sync before rename: the rename must never become visible ahead of the
	// data it points at, or a crash window could expose a torn snapshot.
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		// The file content is durable but its directory entry may not be: a
		// crash here could resurface the old snapshot. Callers treating Save
		// as a durability barrier must see the failure.
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	return nil
}

// Load reads a snapshot of the given kind into payload, verifying the magic
// string, schema version, kind, and payload checksum. Every integrity or
// schema failure — torn file, bit flip, truncation, version or kind
// mismatch — is a simerr.ErrBadInput-class error; a resume must never panic
// or silently continue from garbage. Filesystem failures (missing file,
// permissions) keep their *fs.PathError cause.
func Load(path, kind string, payload any) error {
	blob, err := filesystem().ReadFile(path)
	if err != nil {
		return fmt.Errorf("checkpoint: load: %w", err)
	}
	var env envelope
	if err := json.Unmarshal(blob, &env); err != nil {
		return &simerr.BadInputError{Op: "checkpoint: load",
			Detail: fmt.Sprintf("%s is not a checkpoint file (corrupt or truncated)", path), Err: err}
	}
	if env.Magic != Magic {
		return simerr.BadInput("checkpoint: load", "%s is not a pdnsim checkpoint (magic %q)", path, env.Magic)
	}
	if env.Version != Version {
		return simerr.BadInput("checkpoint: load",
			"%s has schema version %d, this build reads version %d; re-run from scratch", path, env.Version, Version)
	}
	if env.Kind != kind {
		return simerr.BadInput("checkpoint: load",
			"%s holds a %q snapshot, need %q (wrong -resume file?)", path, env.Kind, kind)
	}
	if got := crc32.Checksum(env.Payload, castagnoli); got != env.CRC {
		return simerr.BadInput("checkpoint: load",
			"%s failed its integrity check (crc32c %08x, recorded %08x); the snapshot is corrupt", path, got, env.CRC)
	}
	if err := json.Unmarshal(env.Payload, payload); err != nil {
		return &simerr.BadInputError{Op: "checkpoint: load",
			Detail: fmt.Sprintf("%s payload does not decode", path), Err: err}
	}
	return nil
}
