package sparam

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"pdnsim/internal/checkpoint"
	"pdnsim/internal/diag"
	"pdnsim/internal/mat"
	"pdnsim/internal/simerr"
	"pdnsim/internal/supervise"
)

// noWait is the test supervision policy: retries enabled, backoff disabled.
var noWait = supervise.Policy{Backoff: -1}

// wellZ is a benign 1-port impedance evaluator: Z = 50 + jω·1nH, a passive
// network at every frequency.
func wellZ(_ context.Context, omega float64) (*mat.CMatrix, error) {
	z := mat.CNew(1, 1)
	z.Set(0, 0, complex(50, omega*1e-9))
	return z, nil
}

// testFreqs returns n distinct frequencies in the PDN band.
func testFreqs(n int) []float64 { return LinSpace(1e8, 1e9, n) }

// TestSweepSupervisedInjectedSingularPoint is the issue's acceptance
// scenario: a sweep with one point that fails ErrSingular on every attempt
// must return the other N−1 points, per-point statuses naming the failure,
// and a simerr.ErrPartial-class error.
func TestSweepSupervisedInjectedSingularPoint(t *testing.T) {
	freqs := testFreqs(8)
	badFreq := freqs[3]
	zAt := func(ctx context.Context, omega float64) (*mat.CMatrix, error) {
		// The perturbed retries of the bad point land near (but not on) its
		// nominal ω; match by proximity so every attempt fails.
		if math.Abs(omega/(2*math.Pi)-badFreq) < badFreq*1e-6 {
			return nil, &simerr.SingularError{Op: "test: injected failure"}
		}
		return wellZ(ctx, omega)
	}
	sw, statuses, err := SweepZSupervised(context.Background(), freqs,
		SweepOptions{Z0: 50, Policy: noWait}, zAt)
	if !errors.Is(err, simerr.ErrPartial) {
		t.Fatalf("one failed point must yield ErrPartial, got %v", err)
	}
	var pe *simerr.PartialError
	if !errors.As(err, &pe) || pe.Failed != 1 || pe.Total != len(freqs) {
		t.Fatalf("PartialError must count 1/%d failed, got %+v", len(freqs), pe)
	}
	if !errors.Is(err, simerr.ErrSingular) {
		t.Fatalf("the partial error must carry the per-point cause, got %v", err)
	}
	if sw == nil || len(sw.Points) != len(freqs)-1 {
		t.Fatalf("sweep must carry the %d surviving points, got %v", len(freqs)-1, sw)
	}
	for _, p := range sw.Points {
		if p.Freq == badFreq {
			t.Fatalf("failed frequency %g Hz must not appear in the sweep", badFreq)
		}
	}
	if len(statuses) != len(freqs) {
		t.Fatalf("want one status per requested point, got %d", len(statuses))
	}
	for i, st := range statuses {
		if st.Freq != freqs[i] {
			t.Fatalf("status %d is for %g Hz, want %g Hz", i, st.Freq, freqs[i])
		}
		if freqs[i] == badFreq {
			if st.Err == nil || !errors.Is(st.Err, simerr.ErrSingular) {
				t.Fatalf("bad point status must carry ErrSingular, got %v", st.Err)
			}
			if st.Attempts != supervise.DefaultMaxAttempts {
				t.Fatalf("bad point must exhaust its %d attempts, used %d",
					supervise.DefaultMaxAttempts, st.Attempts)
			}
		} else if st.Err != nil || st.Attempts != 1 {
			t.Fatalf("healthy point %g Hz: attempts=%d err=%v", freqs[i], st.Attempts, st.Err)
		}
	}
	// The supervision trail must mark the skipped point in the diagnostics.
	if w, _ := sw.Diag.Worst(); w < diag.Warning {
		t.Fatal("skipped point must leave a warning in the sweep diagnostics")
	}
}

// TestSweepSupervisedRetryRecovers covers the perturbation escape: a point
// that is singular exactly at its nominal frequency succeeds on the first
// perturbed retry, and the sweep completes fully with the recovery recorded.
func TestSweepSupervisedRetryRecovers(t *testing.T) {
	freqs := testFreqs(5)
	exactBad := 2 * math.Pi * freqs[2]
	zAt := func(ctx context.Context, omega float64) (*mat.CMatrix, error) {
		if omega == exactBad {
			return nil, &simerr.SingularError{Op: "test: resonance pole"}
		}
		return wellZ(ctx, omega)
	}
	sw, statuses, err := SweepZSupervised(context.Background(), freqs,
		SweepOptions{Z0: 50, Policy: noWait}, zAt)
	if err != nil {
		t.Fatalf("recovered sweep must succeed, got %v", err)
	}
	if len(sw.Points) != len(freqs) {
		t.Fatalf("want %d points, got %d", len(freqs), len(sw.Points))
	}
	st := statuses[2]
	if st.Attempts != 2 || st.PerturbRel <= 0 || st.Err != nil {
		t.Fatalf("pole point must recover on attempt 2 with a perturbation, got %+v", st)
	}
	if st.PerturbRel != supervise.DefaultPerturbRel {
		t.Fatalf("first retry must use the documented base perturbation %g, got %g",
			supervise.DefaultPerturbRel, st.PerturbRel)
	}
}

// TestSweepSupervisedAllPointsFailed: when nothing survives there is no
// partial result to return — the first per-point cause surfaces instead.
func TestSweepSupervisedAllPointsFailed(t *testing.T) {
	zAt := func(context.Context, float64) (*mat.CMatrix, error) {
		return nil, &simerr.SingularError{Op: "test: everything fails"}
	}
	sw, statuses, err := SweepZSupervised(context.Background(), testFreqs(4),
		SweepOptions{Z0: 50, Policy: noWait}, zAt)
	if sw != nil {
		t.Fatal("a fully failed sweep must not return a sweep")
	}
	if errors.Is(err, simerr.ErrPartial) {
		t.Fatalf("a fully failed sweep is not partial, got %v", err)
	}
	if !errors.Is(err, simerr.ErrSingular) {
		t.Fatalf("want the per-point cause, got %v", err)
	}
	for _, st := range statuses {
		if st.Err == nil {
			t.Fatalf("no status may claim success, got %+v", st)
		}
	}
}

// countingZ wraps wellZ and records which frequencies were evaluated (by
// nominal Hz, tolerating perturbation) and how many total calls were made.
type countingZ struct {
	mu    sync.Mutex
	calls int
	seen  map[float64]int
}

func (c *countingZ) zAt(freqs []float64) ZFunc {
	c.seen = make(map[float64]int)
	return func(ctx context.Context, omega float64) (*mat.CMatrix, error) {
		f := omega / (2 * math.Pi)
		c.mu.Lock()
		c.calls++
		for _, want := range freqs {
			if math.Abs(f-want) < want*1e-6 {
				c.seen[want]++
			}
		}
		c.mu.Unlock()
		return wellZ(ctx, omega)
	}
}

// TestSweepSupervisedKillAndResume kills a checkpointed sweep mid-run via
// context cancellation, then resumes from the flushed snapshot and verifies
// (a) the resumed run recomputes only the missing points and (b) the final
// sweep matches an uninterrupted golden run within checkpoint.ResumeRelTol.
func TestSweepSupervisedKillAndResume(t *testing.T) {
	freqs := testFreqs(9)
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")

	golden, _, err := SweepZSupervised(context.Background(), freqs,
		SweepOptions{Z0: 50, Policy: noWait}, wellZ)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: cancel after the 4th evaluation. Chunked checkpointing
	// (Every: 2) flushes completed points; the cancellation itself flushes a
	// final snapshot before returning.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	calls := 0
	killZ := func(c context.Context, omega float64) (*mat.CMatrix, error) {
		mu.Lock()
		calls++
		if calls == 4 {
			cancel()
		}
		mu.Unlock()
		return wellZ(c, omega)
	}
	sw, _, err := SweepZSupervised(ctx, freqs, SweepOptions{
		Z0:         50,
		Policy:     noWait,
		Checkpoint: checkpoint.Policy{Path: ckpt, Every: 2},
	}, killZ)
	if !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("killed sweep must return ErrCancelled, got %v (sweep %v)", err, sw)
	}

	// Phase 2: resume. Only the not-yet-done frequencies may be evaluated.
	var counter countingZ
	resumed, statuses, err := SweepZSupervised(context.Background(), freqs, SweepOptions{
		Z0:         50,
		Policy:     noWait,
		Checkpoint: checkpoint.Policy{Path: ckpt, Every: 2},
		ResumeFrom: ckpt,
	}, counter.zAt(freqs))
	if err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}
	if counter.calls == 0 {
		t.Fatal("the kill fired mid-sweep, so the resume must have had work left")
	}
	if counter.calls >= len(freqs) {
		t.Fatalf("resume recomputed everything (%d calls for %d points); checkpointed points must be reused",
			counter.calls, len(freqs))
	}
	restored := 0
	for _, st := range statuses {
		if st.Err == nil && st.Attempts == 0 {
			restored++
			if counter.seen[st.Freq] != 0 {
				t.Fatalf("point %g Hz was restored from the snapshot but also re-evaluated", st.Freq)
			}
		}
	}
	if restored == 0 {
		t.Fatal("at least one point must have been restored from the snapshot")
	}

	// The stitched-together sweep must match the uninterrupted run.
	if len(resumed.Points) != len(golden.Points) {
		t.Fatalf("resumed sweep has %d points, golden %d", len(resumed.Points), len(golden.Points))
	}
	for k, p := range resumed.Points {
		g := golden.Points[k]
		if p.Freq != g.Freq {
			t.Fatalf("point %d frequency %g != golden %g", k, p.Freq, g.Freq)
		}
		gs, ps := g.S.At(0, 0), p.S.At(0, 0)
		tol := checkpoint.ResumeRelTol
		if math.Abs(real(ps)-real(gs)) > tol*(1+math.Abs(real(gs))) ||
			math.Abs(imag(ps)-imag(gs)) > tol*(1+math.Abs(imag(gs))) {
			t.Fatalf("point %d S=%v differs from golden %v beyond ResumeRelTol", k, ps, gs)
		}
	}
}

// TestSweepResumeRejectsMismatch: a snapshot from a different frequency grid,
// reference impedance, or snapshot kind must be refused as ErrBadInput.
func TestSweepResumeRejectsMismatch(t *testing.T) {
	freqs := testFreqs(4)
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, _, err := SweepZSupervised(context.Background(), freqs, SweepOptions{
		Z0:         50,
		Policy:     noWait,
		Checkpoint: checkpoint.Policy{Path: ckpt, Every: 2},
	}, wellZ); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		freqs []float64
		z0    float64
	}{
		{"different z0", freqs, 75},
		{"different grid", testFreqs(5), 50},
		{"shifted frequencies", LinSpace(2e8, 2e9, 4), 50},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := SweepZSupervised(context.Background(), tc.freqs,
				SweepOptions{Z0: tc.z0, Policy: noWait, ResumeFrom: ckpt}, wellZ)
			if !errors.Is(err, simerr.ErrBadInput) {
				t.Fatalf("mismatched resume must be ErrBadInput, got %v", err)
			}
		})
	}

	t.Run("wrong snapshot kind", func(t *testing.T) {
		other := filepath.Join(t.TempDir(), "other.ckpt")
		if err := checkpoint.Save(other, "tran", map[string]int{"step": 3}); err != nil {
			t.Fatal(err)
		}
		_, _, err := SweepZSupervised(context.Background(), freqs,
			SweepOptions{Z0: 50, Policy: noWait, ResumeFrom: other}, wellZ)
		if !errors.Is(err, simerr.ErrBadInput) {
			t.Fatalf("wrong-kind resume must be ErrBadInput, got %v", err)
		}
	})
}
