// Package sparam converts the frequency-domain port solutions of the
// extraction and circuit engines into scattering parameters, the form in
// which the paper's measurements are reported (§5.1: "experimental
// measurements … are mostly made in frequency domain in terms of
// S-parameters"), and writes Touchstone files.
package sparam

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"strconv"
	"strings"

	"pdnsim/internal/diag"
	"pdnsim/internal/mat"
	"pdnsim/internal/simerr"
)

// FromZ converts an N×N impedance matrix to scattering parameters with the
// real reference impedance z0: S = (Z − z0·I)(Z + z0·I)⁻¹.
func FromZ(z *mat.CMatrix, z0 float64) (*mat.CMatrix, error) {
	if z.Rows != z.Cols {
		return nil, simerr.Tagf(simerr.ErrBadInput, "sparam: Z must be square")
	}
	if z0 <= 0 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "sparam: reference impedance must be positive")
	}
	n := z.Rows
	num := z.Clone()
	den := z.Clone()
	for i := 0; i < n; i++ {
		num.Add(i, i, complex(-z0, 0))
		den.Add(i, i, complex(z0, 0))
	}
	denInv, err := mat.CInverse(den)
	if err != nil {
		return nil, fmt.Errorf("sparam: Z + z0·I singular: %w", err)
	}
	return num.Mul(denInv), nil
}

// FromY converts an admittance matrix: S = (I − z0·Y)(I + z0·Y)⁻¹.
func FromY(y *mat.CMatrix, z0 float64) (*mat.CMatrix, error) {
	if y.Rows != y.Cols {
		return nil, simerr.Tagf(simerr.ErrBadInput, "sparam: Y must be square")
	}
	if z0 <= 0 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "sparam: reference impedance must be positive")
	}
	n := y.Rows
	num := y.Clone().Scale(complex(-z0, 0))
	den := y.Clone().Scale(complex(z0, 0))
	for i := 0; i < n; i++ {
		num.Add(i, i, 1)
		den.Add(i, i, 1)
	}
	denInv, err := mat.CInverse(den)
	if err != nil {
		return nil, fmt.Errorf("sparam: I + z0·Y singular: %w", err)
	}
	return num.Mul(denInv), nil
}

// DB returns 20·log10|s|.
func DB(s complex128) float64 { return 20 * math.Log10(cmplx.Abs(s)) }

// PhaseDeg returns the phase of s in degrees.
func PhaseDeg(s complex128) float64 { return cmplx.Phase(s) * 180 / math.Pi }

// Point is the S matrix at one frequency.
type Point struct {
	Freq float64 // Hz
	S    *mat.CMatrix
}

// Sweep is an S-parameter frequency sweep.
type Sweep struct {
	Z0     float64
	Points []Point

	// Diag holds the physics-invariant trail of the sweep (passivity and
	// reciprocity margins across frequency). Populated by Verify; SweepZCtx
	// runs Verify automatically in observation mode so every computed sweep
	// carries its margins.
	Diag *diag.Diagnostics
}

// Passivity/reciprocity degradation thresholds. A passive reciprocal network
// has max singular value ≤ 1 and S = Sᵀ exactly; roundoff through the solve
// chain leaves margins many orders below these.
const (
	// PassWarnTol is the singular-value excess over 1 past which the sweep
	// is flagged as (numerically) active.
	PassWarnTol = 1e-8
	// PassFailTol is the excess past which the model is non-physical and
	// Verify escalates to ErrIllConditioned.
	PassFailTol = 1e-2
	// RecipWarnTol and RecipFailTol bound the relative asymmetry
	// max|Sij − Sji| / max|S| of a reciprocal network.
	RecipWarnTol = 1e-9
	RecipFailTol = 1e-4
)

// Verify checks the physics invariants of the sweep — passivity (largest
// singular value ≤ 1 at every frequency) and reciprocity (S = Sᵀ) — records
// the worst margins in sw.Diag, and returns a simerr.ErrIllConditioned-class
// error when either crosses its escalation threshold. Margins in the warn
// band record Warnings and the sweep remains usable (graceful degradation);
// healthy margins record a single Info line each.
func (sw *Sweep) Verify() error {
	sw.Diag = diag.New()
	if len(sw.Points) == 0 {
		return nil
	}
	var worstSigma, worstRecip float64
	var sigmaFreq, recipFreq float64
	for _, p := range sw.Points {
		if s := MaxSingularValue(p.S); s > worstSigma {
			worstSigma, sigmaFreq = s, p.Freq
		}
		if a := reciprocityAsymmetry(p.S); a > worstRecip {
			worstRecip, recipFreq = a, p.Freq
		}
	}
	excess := worstSigma - 1
	switch {
	case excess > PassFailTol:
		sw.Diag.Errorf("sparam", "passivity", worstSigma, 1+PassFailTol,
			"max singular value %.6g at %g Hz; model is non-passive", worstSigma, sigmaFreq)
		return &simerr.IllConditionedError{Op: "sparam: verify", Quantity: "max singular value",
			Value: worstSigma, Limit: 1 + PassFailTol}
	case excess > PassWarnTol:
		sw.Diag.Warnf("sparam", "passivity", worstSigma, 1+PassWarnTol, false,
			"max singular value %.9g at %g Hz slightly exceeds 1", worstSigma, sigmaFreq)
	default:
		sw.Diag.Infof("sparam", "passivity", worstSigma, 1+PassWarnTol,
			"max singular value %.6g across %d points", worstSigma, len(sw.Points))
	}
	switch {
	case worstRecip > RecipFailTol:
		sw.Diag.Errorf("sparam", "reciprocity", worstRecip, RecipFailTol,
			"relative asymmetry %.3g at %g Hz; network is non-reciprocal", worstRecip, recipFreq)
		return &simerr.IllConditionedError{Op: "sparam: verify", Quantity: "reciprocity asymmetry",
			Value: worstRecip, Limit: RecipFailTol}
	case worstRecip > RecipWarnTol:
		sw.Diag.Warnf("sparam", "reciprocity", worstRecip, RecipWarnTol, false,
			"relative asymmetry %.3g at %g Hz", worstRecip, recipFreq)
	default:
		sw.Diag.Infof("sparam", "reciprocity", worstRecip, RecipWarnTol,
			"worst relative asymmetry %.3g", worstRecip)
	}
	return nil
}

// reciprocityAsymmetry returns max|Sij − Sji| / max|Sij| (0 for empty or
// zero matrices).
func reciprocityAsymmetry(s *mat.CMatrix) float64 {
	var worst, scale float64
	for i := 0; i < s.Rows; i++ {
		for j := 0; j < s.Cols; j++ {
			if a := cmplx.Abs(s.At(i, j)); a > scale {
				scale = a
			}
			if j <= i {
				continue
			}
			if d := cmplx.Abs(s.At(i, j) - s.At(j, i)); d > worst {
				worst = d
			}
		}
	}
	if scale == 0 {
		return 0
	}
	return worst / scale
}

// ZFunc evaluates a port impedance matrix at angular frequency omega. The
// context is threaded into the evaluation itself (not just checked between
// points) so a hung or expensive single point stays cancellable mid-solve —
// extraction evaluators check it per port column (Network.PortZCtx).
type ZFunc func(ctx context.Context, omega float64) (*mat.CMatrix, error)

// SweepZCtx converts a per-frequency impedance evaluator into an S sweep.
// The frequency points are evaluated in parallel, so zAt must be safe for
// concurrent calls (the extraction and cavity evaluators are: they only read
// shared matrices). Each point checks ctx before evaluating and passes it
// into zAt, so an expensive sweep stops within one point of a timeout — and
// a single hung point stops mid-solve — returning a
// simerr.ErrCancelled-class error. Non-finite frequencies are rejected up
// front (simerr.ErrBadInput).
func SweepZCtx(ctx context.Context, freqs []float64, z0 float64, zAt ZFunc) (*Sweep, error) {
	for i, f := range freqs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, simerr.BadInput("sparam: sweep", "non-finite frequency %g at index %d", f, i)
		}
	}
	if !(z0 > 0) || math.IsInf(z0, 0) {
		return nil, simerr.BadInput("sparam: sweep", "reference impedance must be positive and finite, got %g", z0)
	}
	sw := &Sweep{Z0: z0}
	sw.Points = make([]Point, len(freqs))
	errs := make([]error, len(freqs))
	mat.ParallelFor(len(freqs), func(i int) {
		if err := simerr.CheckCtx(ctx, "sparam: sweep"); err != nil {
			errs[i] = err
			return
		}
		f := freqs[i]
		z, err := zAt(ctx, 2*math.Pi*f)
		if err != nil {
			errs[i] = fmt.Errorf("sparam: Z at %g Hz: %w", f, err)
			return
		}
		s, err := FromZ(z, z0)
		if err != nil {
			errs[i] = fmt.Errorf("sparam: S at %g Hz: %w", f, err)
			return
		}
		sw.Points[i] = Point{Freq: f, S: s}
	})
	// Cancellation usually marks many points at once; prefer reporting it
	// over whichever per-point error happens to sit first in the slice.
	for _, err := range errs {
		if err != nil && errors.Is(err, simerr.ErrCancelled) {
			return nil, err
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Observation mode: every computed sweep carries its passivity and
	// reciprocity margins in sw.Diag. Escalation is the caller's choice
	// (call Verify and honour its error).
	_ = sw.Verify()
	return sw, nil
}

// MagDBSeries extracts |S(i,j)| in dB across the sweep.
func (sw *Sweep) MagDBSeries(i, j int) (freqs, db []float64) {
	freqs = make([]float64, len(sw.Points))
	db = make([]float64, len(sw.Points))
	for k, p := range sw.Points {
		freqs[k] = p.Freq
		db[k] = DB(p.S.At(i, j))
	}
	return freqs, db
}

// Touchstone renders the sweep in Touchstone 1.x format (Hz, real/imag,
// reference Z0). Supports any port count; 2-port files use the standard
// S11 S21 S12 S22 column order.
func (sw *Sweep) Touchstone(comment string) (string, error) {
	if len(sw.Points) == 0 {
		return "", simerr.Tagf(simerr.ErrBadInput, "sparam: empty sweep")
	}
	n := sw.Points[0].S.Rows
	// Every %.9e field takes at most 17 bytes ("-d.ddddddddde+ddd"). Sizing
	// the builder for that up front keeps the returned string's backing
	// array within a few per cent of its length: String does not trim the
	// slack that growing by doubling would leave.
	var b strings.Builder
	b.Grow(len(comment) + 64 + len(sw.Points)*(17+n*n*2*18+1))
	if comment != "" {
		fmt.Fprintf(&b, "! %s\n", comment)
	}
	fmt.Fprintf(&b, "# HZ S RI R %g\n", sw.Z0)
	for _, p := range sw.Points {
		if p.S.Rows != n {
			return "", simerr.Tagf(simerr.ErrBadInput, "sparam: inconsistent port counts in sweep")
		}
		fmt.Fprintf(&b, "%.9e", p.Freq)
		if n == 2 {
			// Touchstone's historical 2-port order: S11 S21 S12 S22.
			order := [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
			for _, ij := range order {
				s := p.S.At(ij[0], ij[1])
				fmt.Fprintf(&b, " %.9e %.9e", real(s), imag(s))
			}
		} else {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					s := p.S.At(i, j)
					fmt.Fprintf(&b, " %.9e %.9e", real(s), imag(s))
				}
			}
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// ParseTouchstone reads a Touchstone 1.x body produced by Touchstone (or any
// tool using Hz / S / RI format) back into a sweep. nPorts must be given
// (the file format encodes it only in the filename extension). 2-port files
// use the historical S11 S21 S12 S22 column order.
func ParseTouchstone(src string, nPorts int) (*Sweep, error) {
	if nPorts < 1 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "sparam: port count must be positive")
	}
	sw := &Sweep{Z0: 50}
	sawOption := false
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "!") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			// Expect: # HZ S RI R <z0>
			if len(fields) < 5 || !strings.EqualFold(fields[1], "hz") ||
				!strings.EqualFold(fields[2], "s") || !strings.EqualFold(fields[3], "ri") {
				return nil, simerr.Tagf(simerr.ErrBadInput, "sparam: unsupported option line %q (need HZ S RI)", line)
			}
			z0, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				return nil, simerr.Tagf(simerr.ErrBadInput, "sparam: bad reference impedance in %q", line)
			}
			sw.Z0 = z0
			sawOption = true
			continue
		}
		fields := strings.Fields(line)
		want := 1 + 2*nPorts*nPorts
		if len(fields) != want {
			return nil, simerr.Tagf(simerr.ErrBadInput, "sparam: line %d has %d columns, want %d for %d ports",
				ln+1, len(fields), want, nPorts)
		}
		nums := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, simerr.Tagf(simerr.ErrBadInput, "sparam: line %d: bad number %q", ln+1, f)
			}
			nums[i] = v
		}
		s := mat.CNew(nPorts, nPorts)
		if nPorts == 2 {
			order := [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
			for k, ij := range order {
				s.Set(ij[0], ij[1], complex(nums[1+2*k], nums[2+2*k]))
			}
		} else {
			k := 0
			for i := 0; i < nPorts; i++ {
				for j := 0; j < nPorts; j++ {
					s.Set(i, j, complex(nums[1+2*k], nums[2+2*k]))
					k++
				}
			}
		}
		sw.Points = append(sw.Points, Point{Freq: nums[0], S: s})
	}
	if !sawOption || len(sw.Points) == 0 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "sparam: no option line or data found")
	}
	return sw, nil
}

// Passive reports whether every S matrix in the sweep is passive: the
// largest singular value (computed by power iteration on SᴴS) must not
// exceed 1 + tol at any frequency. Use it as a sanity screen for extracted
// macromodels.
func (sw *Sweep) Passive(tol float64) bool {
	for _, p := range sw.Points {
		if MaxSingularValue(p.S) > 1+tol {
			return false
		}
	}
	return true
}

// sigmaIterTol is the relative stagnation bound that ends the spectral-norm
// power iteration: successive σ estimates converge geometrically at the
// eigenvalue-gap ratio, so agreement to 1e-12·(1+σ) — a few hundred ulp —
// means further sweeps only churn round-off. Passivity classification uses
// PassWarnTol = 1e-8, four decades coarser, so the estimate is never the
// limiting accuracy.
const sigmaIterTol = 1e-12

// MaxSingularValue returns the spectral norm of a complex matrix via power
// iteration on SᴴS (sufficiently accurate for the small port counts of
// extracted networks).
func MaxSingularValue(s *mat.CMatrix) float64 {
	n := s.Cols
	if n == 0 {
		return 0
	}
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(1/math.Sqrt(float64(n)), 0)
	}
	var sigma float64
	for iter := 0; iter < 100; iter++ {
		// y = S·x ; z = Sᴴ·y.
		y := s.MulVec(x)
		z := make([]complex128, n)
		for j := 0; j < n; j++ {
			var acc complex128
			for i := 0; i < s.Rows; i++ {
				acc += cmplx.Conj(s.At(i, j)) * y[i]
			}
			z[j] = acc
		}
		var norm float64
		for _, v := range z {
			norm += real(v)*real(v) + imag(v)*imag(v)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 0
		}
		next := math.Sqrt(norm)
		for i := range z {
			x[i] = z[i] / complex(norm, 0)
		}
		if math.Abs(next-sigma) <= sigmaIterTol*(1+next) {
			return next
		}
		sigma = next
	}
	return sigma
}

// ValidateRange checks a LinSpace sweep request: at least one point and a
// positive, finite, ascending band (fmax may equal fmin). Violations are
// simerr.ErrBadInput-class errors.
func ValidateRange(fmin, fmax float64, nf int) error {
	bad := func(format string, args ...any) error {
		return simerr.BadInput("sparam: sweep range", format, args...)
	}
	if nf < 1 {
		return bad("nf must be ≥ 1, got %d", nf)
	}
	finitePos := func(x float64) bool { return x > 0 && !math.IsInf(x, 0) }
	if !finitePos(fmin) || !finitePos(fmax) {
		return bad("fmin_hz/fmax_hz must be positive and finite, got %g..%g", fmin, fmax)
	}
	if fmax < fmin {
		return bad("fmax_hz %g below fmin_hz %g", fmax, fmin)
	}
	return nil
}

// LinSpace returns n evenly spaced frequencies from f0 to f1 inclusive.
func LinSpace(f0, f1 float64, n int) []float64 {
	if n < 2 {
		return []float64{f0}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = f0 + (f1-f0)*float64(i)/float64(n-1)
	}
	return out
}
