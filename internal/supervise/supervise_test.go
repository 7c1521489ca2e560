package supervise

import (
	"context"
	"errors"
	"testing"
	"time"

	"pdnsim/internal/simerr"
)

// noWait is the test policy base: retries without sleeping.
func noWait() Policy { return Policy{Backoff: -1} }

func TestFirstTrySuccess(t *testing.T) {
	v, st := Do(context.Background(), noWait(), 7, func(ctx context.Context, p float64) (int, error) {
		if p != 0 {
			t.Fatalf("first attempt must be unperturbed, got %g", p)
		}
		return 42, nil
	})
	if st.Err != nil || v != 42 || st.Attempts != 1 || st.Index != 7 {
		t.Fatalf("clean success mangled: v=%d st=%+v", v, st)
	}
}

func TestRetriesSingularWithEscalatingPerturbation(t *testing.T) {
	var perturbs []float64
	v, st := Do(context.Background(), noWait(), 0, func(ctx context.Context, p float64) (string, error) {
		perturbs = append(perturbs, p)
		if len(perturbs) < 3 {
			return "", &simerr.SingularError{Op: "test", Row: -1}
		}
		return "ok", nil
	})
	if st.Err != nil || v != "ok" || st.Attempts != 3 {
		t.Fatalf("retry path broken: v=%q st=%+v", v, st)
	}
	if perturbs[0] != 0 {
		t.Fatalf("attempt 1 perturbed: %v", perturbs)
	}
	if perturbs[1] != DefaultPerturbRel || perturbs[2] != 2*DefaultPerturbRel {
		t.Fatalf("perturbation must escalate by doubling from the default: %v", perturbs)
	}
	if st.PerturbRel != perturbs[2] {
		t.Fatalf("status must carry the final perturbation: %+v", st)
	}
}

func TestBudgetExhaustionKeepsFinalError(t *testing.T) {
	calls := 0
	_, st := Do(context.Background(), noWait(), 0, func(ctx context.Context, p float64) (int, error) {
		calls++
		return 0, &simerr.IllConditionedError{Op: "test", Quantity: "κ", Value: 1e18, Limit: 1e12}
	})
	if st.Err == nil || calls != DefaultMaxAttempts || st.Attempts != DefaultMaxAttempts {
		t.Fatalf("budget not honoured: calls=%d st=%+v", calls, st)
	}
	if !errors.Is(st.Err, simerr.ErrIllConditioned) {
		t.Fatalf("final error class lost: %v", st.Err)
	}
}

func TestNonRetryableFailsImmediately(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"bad input", simerr.BadInput("test", "junk")},
		{"nan", &simerr.NaNError{Op: "test", Index: 0}},
		{"non-convergence", &simerr.NonConvergenceError{Op: "test", Iterations: 100}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			_, st := Do(context.Background(), noWait(), 0, func(ctx context.Context, p float64) (int, error) {
				calls++
				return 0, tc.err
			})
			if calls != 1 || st.Err == nil {
				t.Fatalf("%s must not be retried: calls=%d st=%+v", tc.name, calls, st)
			}
		})
	}
}

func TestCancellationStopsRetries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	_, st := Do(ctx, noWait(), 0, func(ctx context.Context, p float64) (int, error) {
		calls++
		cancel()
		return 0, &simerr.SingularError{Op: "test", Row: -1}
	})
	if calls != 1 {
		t.Fatalf("cancelled supervisor kept retrying: %d calls", calls)
	}
	// The attempt's own error is reported (the caller sees why the item
	// failed); the next Do call on a dead ctx reports cancellation.
	if st.Err == nil {
		t.Fatal("status must carry an error")
	}
	_, st2 := Do(ctx, noWait(), 1, func(ctx context.Context, p float64) (int, error) {
		t.Fatal("work must not run on a dead context")
		return 0, nil
	})
	if !errors.Is(st2.Err, simerr.ErrCancelled) {
		t.Fatalf("dead ctx must yield ErrCancelled, got %v", st2.Err)
	}
}

func TestBackoffRespectsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{Backoff: time.Hour} // would hang forever if ctx were ignored
	calls := 0
	done := make(chan Status, 1)
	go func() {
		_, st := Do(ctx, p, 0, func(ctx context.Context, pr float64) (int, error) {
			calls++
			return 0, &simerr.SingularError{Op: "test", Row: -1}
		})
		done <- st
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case st := <-done:
		if !errors.Is(st.Err, simerr.ErrCancelled) {
			t.Fatalf("backoff interrupted by cancel must report ErrCancelled, got %v", st.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("backoff ignored ctx cancellation")
	}
}

// TestBackoffCancelInterruptsTheWait is the regression test for the bare
// time.Sleep backoff: a cancellation arriving *during* a backoff wait must
// abort the wait itself, not be discovered only at the top of the next loop
// iteration after the full delay has been slept out. The old code slept
// unconditionally, so the cancel landed after the wait, attempt 2 still ran,
// and the reported failure came from the loop-top check (Attempts == 2, Op
// "supervise"); the select-based wait returns during the backoff with
// Attempts == 1 and the cancellation attributed to "supervise: backoff".
func TestBackoffCancelInterruptsTheWait(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 10, Backoff: MaxBackoff} // every retry waits the full 100 ms cap
	calls := 0
	go func() {
		time.Sleep(10 * time.Millisecond) // well inside the first 100 ms backoff
		cancel()
	}()
	start := time.Now()
	_, st := Do(ctx, p, 0, func(ctx context.Context, pr float64) (int, error) {
		calls++
		return 0, &simerr.SingularError{Op: "test", Row: -1}
	})
	elapsed := time.Since(start)
	if !errors.Is(st.Err, simerr.ErrCancelled) {
		t.Fatalf("cancel during backoff must report ErrCancelled, got %v", st.Err)
	}
	var ce *simerr.CancelledError
	if !errors.As(st.Err, &ce) || ce.Op != "supervise: backoff" {
		t.Fatalf("cancellation must interrupt the backoff wait itself, got error %v", st.Err)
	}
	if calls != 1 || st.Attempts != 1 {
		t.Fatalf("no further attempt may run after a cancelled backoff: %d calls, %d attempts", calls, st.Attempts)
	}
	// Loose wall-clock bound: the interrupted wait returns in milliseconds;
	// any implementation that sleeps out even one full backoff before
	// noticing the cancel spends ≥ 100 ms (and up to 900 ms if every retry's
	// wait is slept through). 500 ms leaves head-room for a loaded CI runner
	// without letting a wait-it-out implementation through the structural
	// assertions above.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("cancelled backoff took %v; the wait is not being interrupted", elapsed)
	}
}

func TestBackoffCapsAtMax(t *testing.T) {
	p := Policy{Backoff: 40 * time.Millisecond}
	if got := p.backoffFor(2); got != 40*time.Millisecond {
		t.Fatalf("first retry backoff %v", got)
	}
	if got := p.backoffFor(3); got != 80*time.Millisecond {
		t.Fatalf("second retry backoff %v", got)
	}
	if got := p.backoffFor(4); got != MaxBackoff {
		t.Fatalf("backoff must cap at MaxBackoff, got %v", got)
	}
	if got := p.backoffFor(20); got != MaxBackoff {
		t.Fatalf("deep backoff must stay capped, got %v", got)
	}
}

func TestCustomPolicyKnobs(t *testing.T) {
	p := Policy{MaxAttempts: 5, PerturbRel: 1e-6, Backoff: -1,
		RetryOn: func(err error) bool { return errors.Is(err, simerr.ErrNaN) }}
	calls := 0
	_, st := Do(context.Background(), p, 0, func(ctx context.Context, pr float64) (int, error) {
		calls++
		return 0, &simerr.NaNError{Op: "test", Index: 0}
	})
	if calls != 5 || st.Attempts != 5 {
		t.Fatalf("custom budget not honoured: %d", calls)
	}
	if st.PerturbRel != 1e-6*8 {
		t.Fatalf("custom perturbation scale not honoured: %g", st.PerturbRel)
	}
	// Custom predicate: singular is now non-retryable.
	calls = 0
	_, _ = Do(context.Background(), p, 0, func(ctx context.Context, pr float64) (int, error) {
		calls++
		return 0, &simerr.SingularError{Op: "test", Row: -1}
	})
	if calls != 1 {
		t.Fatalf("custom RetryOn ignored: %d calls", calls)
	}
}

// RetryDelay applies full jitter (±JitterFrac) to the deterministic backoff
// schedule: every sample must stay inside the jitter window, and repeated
// samples must actually vary — a constant delay would retry a burst of
// simultaneously-requeued items in lockstep (the thundering herd the jitter
// exists to break up).
func TestRetryDelayJitterBounds(t *testing.T) {
	p := Policy{Backoff: 40 * time.Millisecond}
	for _, attempt := range []int{2, 3, 4} {
		base := p.backoffFor(attempt)
		lo := time.Duration((1 - JitterFrac) * float64(base))
		hi := time.Duration((1 + JitterFrac) * float64(base))
		seen := map[time.Duration]bool{}
		for i := 0; i < 200; i++ {
			d := p.RetryDelay(attempt)
			if d < lo || d > hi {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, lo, hi)
			}
			seen[d] = true
		}
		if len(seen) < 2 {
			t.Fatalf("attempt %d: 200 jittered delays collapsed to %d distinct value(s)", attempt, len(seen))
		}
	}
}

func TestRetryDelayZeroBeforeFirstAttempt(t *testing.T) {
	p := Policy{Backoff: 40 * time.Millisecond}
	if d := p.RetryDelay(1); d != 0 {
		t.Fatalf("first attempt must not wait, got %v", d)
	}
	if d := (Policy{Backoff: -1}).RetryDelay(5); d != 0 {
		t.Fatalf("disabled backoff must not wait, got %v", d)
	}
}
