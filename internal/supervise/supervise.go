// Package supervise isolates the failure of one work item from the run that
// contains it. The solver's long loops — per-frequency sweep points,
// extraction retries — historically failed all-or-nothing: one singular
// frequency point aborted an entire S-parameter sweep. Under a supervision
// Policy each item instead gets bounded retries (with backoff and an
// escalating numerical perturbation that steps a solve off an exact
// resonance or rank deficiency), and an item that still fails is marked
// failed and skipped so the run completes with partial results.
//
// The perturbation is deliberately generic: sweep callers apply it as a
// relative frequency nudge (ω·(1+p)), extraction callers as relative
// diagonal regularization. Retryable failures default to the numerical
// classes a perturbation can plausibly fix — simerr.ErrSingular and
// simerr.ErrIllConditioned; malformed input, cancellation, NaNs and Newton
// budget exhaustion are never retried (a perturbation cannot repair them,
// and retrying cancellation would fight the user).
package supervise

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"pdnsim/internal/simerr"
)

// DefaultMaxAttempts is the default total attempts per item (first try plus
// retries). Three keeps the worst-case extra cost of a systematically
// failing sweep bounded at 2× while giving a resonance-grazing point two
// perturbed chances.
const DefaultMaxAttempts = 3

// DefaultPerturbRel is the first-retry relative perturbation, doubled on
// each further retry. 1e-9 is orders of magnitude above float64 roundoff
// (so it genuinely moves a solve off an exact singular point — cf. the MTL
// resonance guard of the same scale) yet far below the width of any
// physical resonance of a package or board structure, so a perturbed point
// is indistinguishable from the exact one at plotting precision.
const DefaultPerturbRel = 1e-9

// DefaultBackoff is the delay before the first retry, doubled per retry.
// Numerical failures are deterministic, but the retry runs perturbed, and a
// millisecond of backoff keeps a pathological all-points-failing sweep from
// spinning a core at full rate while costing nothing against real solve
// times.
const DefaultBackoff = time.Millisecond

// MaxBackoff caps the exponential backoff so a deep retry budget never
// stalls a run for longer than a solve would take.
const MaxBackoff = 100 * time.Millisecond

// JitterFrac is the full-jitter fraction applied to every retry wait: the
// actual delay is uniform in [1−JitterFrac, 1+JitterFrac] × the
// deterministic schedule (±50%). Deterministic exponential backoff retries
// simultaneously-failed items in lockstep — when a burst of sweep shards
// lose their leases together (one slow disk stall, one GC pause), they
// would all re-hit the worker pool at the same instant and collide again.
// Spreading each wait over a 2×JitterFrac window decorrelates the herd
// while keeping the mean equal to the deterministic schedule.
const JitterFrac = 0.5

// Policy bounds the retries of one work item. The zero value selects every
// default, so `var p supervise.Policy` is a working configuration.
type Policy struct {
	// MaxAttempts is the total number of attempts per item, including the
	// first. Zero or negative selects DefaultMaxAttempts; 1 disables
	// retries (supervision then only provides mark-failed-and-continue).
	MaxAttempts int

	// Backoff is the delay before the first retry, doubled on each further
	// retry and capped at MaxBackoff. Zero selects DefaultBackoff; negative
	// disables waiting entirely (useful in tests).
	Backoff time.Duration

	// PerturbRel is the relative perturbation handed to the first retry,
	// doubled on each further retry. Zero selects DefaultPerturbRel;
	// negative disables perturbation (retries re-run the item unchanged).
	PerturbRel float64

	// RetryOn decides whether an attempt's error is worth retrying. Nil
	// selects Retryable.
	RetryOn func(error) bool
}

// Retryable is the default retry predicate: only the numerical failure
// classes a perturbation can plausibly fix.
func Retryable(err error) bool {
	return errors.Is(err, simerr.ErrSingular) || errors.Is(err, simerr.ErrIllConditioned)
}

// Status records the supervision outcome of one work item.
type Status struct {
	Index      int     // caller's item index (frequency point, attempt slot)
	Attempts   int     // attempts consumed (1 = clean first-try success)
	PerturbRel float64 // perturbation of the final attempt (0 = unperturbed)
	Err        error   // nil on success; the final attempt's error otherwise
}

// maxAttempts resolves the effective attempt budget.
func (p Policy) maxAttempts() int {
	if p.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return p.MaxAttempts
}

// perturbFor returns the relative perturbation for attempt k (1-based):
// 0 for the first attempt, then PerturbRel escalating by doubling.
func (p Policy) perturbFor(attempt int) float64 {
	if attempt <= 1 || p.PerturbRel < 0 {
		return 0
	}
	base := p.PerturbRel
	if base == 0 {
		base = DefaultPerturbRel
	}
	out := base
	for k := 2; k < attempt; k++ {
		out *= 2
	}
	return out
}

// backoffFor returns the deterministic base wait before attempt k (1-based;
// no wait before the first attempt), doubling from Backoff and capped at
// MaxBackoff. The wait actually slept is RetryDelay, which jitters this
// schedule by ±JitterFrac.
func (p Policy) backoffFor(attempt int) time.Duration {
	if attempt <= 1 || p.Backoff < 0 {
		return 0
	}
	d := p.Backoff
	if d == 0 {
		d = DefaultBackoff
	}
	for k := 2; k < attempt; k++ {
		d *= 2
		if d >= MaxBackoff {
			return MaxBackoff
		}
	}
	if d > MaxBackoff {
		return MaxBackoff
	}
	return d
}

// RetryDelay returns the jittered wait before attempt k (1-based): the
// deterministic backoffFor schedule scaled by a uniform random factor in
// [1−JitterFrac, 1+JitterFrac]. This is the delay Do actually sleeps, and
// the one external requeue loops (the serve shard scheduler) should use so
// their retries decorrelate the same way.
func (p Policy) RetryDelay(attempt int) time.Duration {
	return jitter(p.backoffFor(attempt))
}

// jitter spreads d uniformly over [1−JitterFrac, 1+JitterFrac]·d.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	lo := (1 - JitterFrac) * float64(d)
	return time.Duration(lo + rand.Float64()*2*JitterFrac*float64(d))
}

// Do runs one work item under the policy. fn receives the context and the
// relative perturbation for the current attempt (0 on the first attempt; the
// caller decides what "perturb" means for its solve). Do retries failures
// the policy deems retryable, waiting the backoff between attempts (the
// wait aborts promptly on ctx cancellation), and returns the first
// successful value together with a Status describing the effort. A
// non-retryable error, an exhausted budget, or cancellation returns the
// zero value and a Status carrying the final error.
func Do[T any](ctx context.Context, p Policy, index int, fn func(ctx context.Context, perturbRel float64) (T, error)) (T, Status) {
	var zero T
	st := Status{Index: index}
	retryOn := p.RetryOn
	if retryOn == nil {
		retryOn = Retryable
	}
	budget := p.maxAttempts()
	for attempt := 1; attempt <= budget; attempt++ {
		if err := simerr.CheckCtx(ctx, "supervise"); err != nil {
			st.Err = err
			return zero, st
		}
		if wait := p.RetryDelay(attempt); wait > 0 {
			if err := sleepCtx(ctx, wait); err != nil {
				st.Err = err
				return zero, st
			}
		}
		st.Attempts = attempt
		st.PerturbRel = p.perturbFor(attempt)
		v, err := fn(ctx, st.PerturbRel)
		if err == nil {
			st.Err = nil
			return v, st
		}
		st.Err = err
		if !retryOn(err) || errors.Is(err, simerr.ErrCancelled) {
			return zero, st
		}
	}
	return zero, st
}

// sleepCtx waits for d or until ctx is cancelled, whichever comes first,
// returning a simerr.ErrCancelled-class error in the latter case. A nil ctx
// waits unconditionally (a nil Done channel never fires), but every wait goes
// through the same select — there is deliberately no bare time.Sleep here: a
// sleeping backoff cannot observe cancellation, so a cancelled run would
// still wait out the full (up to MaxBackoff) delay before every remaining
// retry instead of aborting promptly.
func sleepCtx(ctx context.Context, d time.Duration) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return &simerr.CancelledError{Op: "supervise: backoff", Err: ctx.Err()}
	case <-t.C:
		return nil
	}
}
