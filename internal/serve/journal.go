package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pdnsim/internal/checkpoint"
	"pdnsim/internal/core"
	"pdnsim/internal/diag"
)

// journalFile is the write-ahead job journal inside the state directory: an
// append-only sequence of CRC-framed records (the checkpoint envelope, one
// per line) that lets Recover rebuild the set of accepted-but-unfinished jobs
// after a crash. The journal is metadata only — the sweep results themselves
// are in the per-job snapshot files — so losing it degrades crash recovery,
// never correctness.
const journalFile = "jobs.journal"

// Journal record kinds: the journal holds only what Recover reads. An accept
// without a finish is a live job; the re-arm probe's serve-probe record
// (durability.go) proves the append path and is dropped on compaction.
// Replay skips any other kind, so journals holding the serve-start,
// serve-lease and serve-shard-done records of older daemons still replay,
// and their first compaction drops those records.
const (
	journalKindAccept = "serve-accept"
	journalKindFinish = "serve-finish"
)

// jobAcceptRec is the write-ahead accept record: the full request, so a
// replay can resubmit the job without any other source of truth.
type jobAcceptRec struct {
	ID         string          `json:"id"`
	Board      json.RawMessage `json:"board"`
	Sweep      *SweepSpec      `json:"sweep,omitempty"`
	DeadlineMS int64           `json:"deadline_ms,omitempty"`
	Accepted   string          `json:"accepted,omitempty"`
}

// acceptRecord renders jb's write-ahead accept record.
func acceptRecord(jb *job) jobAcceptRec {
	return jobAcceptRec{
		ID: jb.id, Board: jb.rawBoard, Sweep: jb.sweep,
		DeadlineMS: jb.deadline.Milliseconds(), Accepted: stamp(jb.submitted),
	}
}

// jobFinishRec marks a job terminal. Replay treats a finished id as settled
// regardless of record order (ids are never reused, so an accept landing
// after a fast worker's finish cannot resurrect the job).
type jobFinishRec struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// journalAppend writes one record to the job journal under the storage
// retry policy (Config.StoragePolicy), returning true when the record is
// durably on disk. Degraded durability skips the append outright — the
// storage is known sick and the re-arm probe owns recovery — and an append
// that exhausts its retries degrades durability. In both cases the job is
// marked durable:false with the cause, and service continues: a failed
// append costs crash-recovery coverage, never the job. Call without holding
// s.mu — the append fsyncs and the retries sleep.
func (s *Server) journalAppend(jb *job, kind string, payload any) bool {
	s.mu.Lock()
	j := s.journal
	degraded := s.durState == DurabilityDegraded
	s.mu.Unlock()
	if degraded {
		s.mu.Lock()
		s.markNonDurableLocked(jb, fmt.Sprintf("degraded durability: %s record not journaled", kind))
		s.mu.Unlock()
		return false
	}
	if j == nil {
		return false
	}
	err := s.storageRetry(func() error { return j.Append(kind, payload) })
	if err == nil {
		return true
	}
	s.mu.Lock()
	s.stats.JournalErrors++
	s.markNonDurableLocked(jb, fmt.Sprintf("journal append (%s) failed: %v", kind, err))
	jb.diag.Warnf("serve", "job journal", 0, 0, false,
		"journal append (%s) failed; crash recovery may not cover this transition: %v", kind, err)
	s.mu.Unlock()
	s.degradeOn("journal append ("+kind+")", err)
	return false
}

// RecoverReport summarises a Recover pass.
type RecoverReport struct {
	// Resubmitted lists the ids of jobs re-admitted to the queue, in their
	// original acceptance order and under their original ids.
	Resubmitted []string `json:"resubmitted,omitempty"`
	// SkippedBusy lists live jobs that did not fit the queue; they keep
	// their journal records and are retried on the next Recover.
	SkippedBusy []string `json:"skipped_busy,omitempty"`
	// Failed lists jobs whose journaled request no longer validates
	// ("id: reason"); they are reported and dropped.
	Failed []string `json:"failed,omitempty"`
	// TruncatedTail reports that the journal ended in a torn or corrupt
	// record (the expected signature of a mid-append crash); the valid
	// prefix was replayed.
	TruncatedTail bool `json:"truncated_tail,omitempty"`
}

// Recover replays the job journal from the state directory and resubmits
// every accepted-but-unfinished job under its original id, marked recovered
// so its sweep resumes from the job's own snapshot. Call once, after Start.
// The sequence is deliberate:
//
//  1. Replay the journal (longest valid prefix; a torn tail is the normal
//     crash signature). Accepts without a finish record are live: work a
//     crash interrupted, and jobs a drain flushed before they started.
//  2. Compact the journal down to fresh accept records for the live set
//     BEFORE resubmitting — resubmitted jobs start finishing immediately,
//     and their finish records must land after the compaction, not be
//     erased by it.
//  3. Resubmit in acceptance order, restoring the id sequence so new
//     submissions never collide with recovered ids.
//
// With no state directory Recover is a no-op. Admission failures are
// per-job and reported; the returned error covers only an unreadable
// journal.
func (s *Server) Recover() (RecoverReport, error) {
	var rep RecoverReport
	if s.cfg.StateDir == "" {
		return rep, nil
	}
	recs, truncated, err := checkpoint.ReplayJournal(filepath.Join(s.cfg.StateDir, journalFile))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return rep, err
	}
	rep.TruncatedTail = truncated

	accepts := make(map[string]jobAcceptRec)
	finished := make(map[string]bool)
	var order []string
	maxSeq := 0
	note := func(id string) {
		if n, ok := jobSeq(id); ok && n > maxSeq {
			maxSeq = n
		}
	}
	for _, r := range recs {
		switch r.Kind {
		case journalKindAccept:
			var a jobAcceptRec
			if json.Unmarshal(r.Payload, &a) != nil || a.ID == "" {
				continue
			}
			if _, seen := accepts[a.ID]; !seen {
				order = append(order, a.ID)
			}
			accepts[a.ID] = a
			note(a.ID)
		case journalKindFinish:
			var f jobFinishRec
			if json.Unmarshal(r.Payload, &f) != nil || f.ID == "" {
				continue
			}
			finished[f.ID] = true
			note(f.ID)
		}
	}

	// Validate the live set. A job whose board no longer parses (journal
	// bitrot, schema drift) is unrecoverable: reported, then dropped by the
	// compaction below.
	var live []*job
	for _, id := range order {
		if finished[id] {
			continue
		}
		a := accepts[id]
		spec, perr := core.ParseBoard(a.Board)
		if perr == nil && a.Sweep != nil {
			perr = a.Sweep.validate()
		}
		if perr != nil {
			rep.Failed = append(rep.Failed, id+": "+perr.Error())
			continue
		}
		deadline := time.Duration(a.DeadlineMS) * time.Millisecond
		if deadline <= 0 {
			deadline = s.cfg.DefaultDeadline
		}
		if deadline > s.cfg.MaxDeadline {
			deadline = s.cfg.MaxDeadline
		}
		submitted, terr := time.Parse(time.RFC3339Nano, a.Accepted)
		if terr != nil {
			submitted = time.Now()
		}
		live = append(live, &job{
			id:          id,
			spec:        spec,
			rawBoard:    append([]byte(nil), a.Board...),
			sweep:       a.Sweep,
			deadline:    deadline,
			fingerprint: spec.Fingerprint(),
			recovered:   true,
			submitted:   submitted,
			state:       StateQueued,
			diag:        diag.New(),
		})
	}

	s.mu.Lock()
	if maxSeq > s.seq {
		s.seq = maxSeq
	}
	j := s.journal
	s.mu.Unlock()
	// The compacted journal's accept record is a recovered job's
	// durability: if the rewrite failed, the job still runs but may not
	// survive another crash.
	if j != nil {
		var keep []checkpoint.JournalRecord
		for _, jb := range live {
			if b, merr := json.Marshal(acceptRecord(jb)); merr == nil {
				keep = append(keep, checkpoint.JournalRecord{Kind: journalKindAccept, Payload: b})
			}
		}
		rewriteErr := s.storageRetry(func() error { return j.Rewrite(keep) })
		for _, jb := range live {
			jb.durable = rewriteErr == nil
			if rewriteErr != nil {
				jb.lastErr = fmt.Sprintf("journal rewrite failed during recovery: %v", rewriteErr)
			}
		}
		if rewriteErr != nil {
			s.mu.Lock()
			s.stats.JournalErrors++
			s.mu.Unlock()
			s.degradeOn("journal rewrite (recover)", rewriteErr)
		}
	}

	for _, jb := range live {
		s.mu.Lock()
		admitted := false
		if s.accepting {
			select {
			case s.queue <- jb:
				admitted = true
			default:
			}
		}
		if admitted {
			s.jobs[jb.id] = jb
			s.order = append(s.order, jb.id)
			s.stats.Accepted++
			s.stats.Recovered++
			s.pruneLocked()
			s.cond.Signal()
		}
		s.mu.Unlock()
		if admitted {
			rep.Resubmitted = append(rep.Resubmitted, jb.id)
		} else {
			rep.SkippedBusy = append(rep.SkippedBusy, jb.id)
		}
	}
	return rep, nil
}

// jobSeq extracts the numeric sequence of a "j-NNNNNN" job id, so Recover
// can restore the id counter past every id it has seen.
func jobSeq(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "j-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
