package diag

import (
	"math"

	"pdnsim/internal/mat"
	"pdnsim/internal/simerr"
)

// Default degradation thresholds. Below the warn threshold a check passes
// silently (or records Info); between warn and fail it warns and repairs;
// past fail it escalates to a typed simerr error.
const (
	// SymWarnTol is the relative asymmetry above which a nominally
	// symmetric physical matrix (Maxwell capacitance, inverse-inductance
	// Laplacian) is repaired by symmetrisation and a warning recorded.
	SymWarnTol = 1e-12
	// SymFailTol is the relative asymmetry past which the matrix is not a
	// plausible discretisation artefact anymore but a broken assembly.
	SymFailTol = 1e-6
	// CondWarn is the condition estimate above which solves are flagged as
	// degraded (roughly half the double-precision budget spent on κ).
	CondWarn = 1e8
	// CondFail is the condition estimate past which solve output carries no
	// trustworthy digits and the stage refuses to continue.
	CondFail = 1e14
	// EigClipRel is the relative eigenvalue floor used when repairing an
	// indefinite matrix that should be PSD: eigenvalues below
	// -EigClipRel·λmax escalate, small negatives are clipped to zero.
	EigClipRel = 1e-9
)

// CheckSymmetric verifies that m (a physically symmetric operator) is
// numerically symmetric. Asymmetry in (SymWarnTol, SymFailTol] is repaired
// in place by symmetrisation and recorded as a repaired Warning; beyond
// SymFailTol it records an Error and returns ErrIllConditioned. stage/check
// name the caller for the diagnostic trail.
func CheckSymmetric(d *Diagnostics, stage, check string, m *mat.Matrix) error {
	asym := m.Asymmetry()
	switch {
	case math.IsInf(asym, 1):
		d.Errorf(stage, check, asym, SymFailTol, "matrix is not square")
		return &simerr.IllConditionedError{Op: stage, Quantity: check + " asymmetry", Value: asym, Limit: SymFailTol}
	case asym > SymFailTol:
		d.Errorf(stage, check, asym, SymFailTol,
			"relative asymmetry %.3g exceeds %.3g; assembly is inconsistent", asym, SymFailTol)
		return &simerr.IllConditionedError{Op: stage, Quantity: check + " asymmetry", Value: asym, Limit: SymFailTol}
	case asym > SymWarnTol:
		m.Symmetrize()
		d.Warnf(stage, check, asym, SymWarnTol, true,
			"relative asymmetry %.3g symmetrised away", asym)
	}
	return nil
}

// CheckPSD verifies that a symmetric matrix is positive semidefinite within
// roundoff. Small negative eigenvalues (≥ -EigClipRel·λmax) are clipped to
// zero by reconstructing m from the repaired spectrum and recorded as a
// repaired Warning; a genuinely negative spectrum records an Error and
// returns ErrIllConditioned. minEig is an allowance for intentionally
// singular operators (Laplacians with a ones-nullspace pass with minEig 0).
// m must already be symmetric (run CheckSymmetric first).
func CheckPSD(d *Diagnostics, stage, check string, m *mat.Matrix) error {
	return CheckPSDScaled(d, stage, check, m, 0)
}

// CheckPSDScaled is CheckPSD with an external reference scale for the
// roundoff thresholds. A reduced operator that is exactly singular in exact
// arithmetic (a Schur complement of a Laplacian onto its nullspace support)
// comes out as pure cancellation noise proportional to the magnitude of the
// *unreduced* matrix; judging its spectrum relative to its own λmax — itself
// noise — is degenerate and fails on a sign flip. Callers that reduce an
// operator pass the unreduced matrix magnitude (e.g. mat.NormInf of the full
// system) as scale; thresholds then use max(λmax, scale). scale <= 0 falls
// back to plain CheckPSD behaviour.
func CheckPSDScaled(d *Diagnostics, stage, check string, m *mat.Matrix, scale float64) error {
	if m.Rows != m.Cols || m.Rows == 0 {
		return nil
	}
	vals, vecs, err := mat.JacobiEigen(m)
	if err != nil {
		// Not diagnosable (e.g. asymmetric beyond Jacobi's tolerance):
		// record and move on rather than failing the pipeline on the
		// checker's own limitation.
		d.Warnf(stage, check, 0, 0, false, "PSD check skipped: %v", err)
		return nil
	}
	lmax := math.Max(math.Abs(vals[0]), math.Abs(vals[len(vals)-1]))
	if lmax == 0 {
		return nil // zero matrix is PSD
	}
	lref := math.Max(lmax, scale)
	lmin := vals[0] // ascending order
	switch {
	case lmin < -EigClipRel*lref*1e3:
		d.Errorf(stage, check, lmin, 0,
			"negative eigenvalue %.3g (λmax %.3g); operator is not PSD", lmin, lmax)
		return &simerr.IllConditionedError{Op: stage, Quantity: check + " min eigenvalue", Value: lmin, Limit: 0}
	case lmin < -EigClipRel*lref:
		clipEigenvalues(m, vals, vecs)
		d.Warnf(stage, check, lmin, 0, true,
			"eigenvalue %.3g clipped to zero (λmax %.3g)", lmin, lmax)
	}
	return nil
}

// clipEigenvalues rebuilds m = V·diag(max(λ,0))·Vᵀ in place.
func clipEigenvalues(m *mat.Matrix, vals []float64, vecs *mat.Matrix) {
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k, lk := range vals {
				if lk <= 0 {
					continue
				}
				s += vecs.At(i, k) * lk * vecs.At(j, k)
			}
			m.Set(i, j, s)
		}
	}
}

// CheckCond records the conditioning of a factorised system. κ below
// CondWarn records Info; in (CondWarn, CondFail] a Warning (callers are
// expected to refine); past CondFail an Error plus ErrIllConditioned.
func CheckCond(d *Diagnostics, stage, check string, cond float64) error {
	switch {
	case math.IsInf(cond, 1) || cond > CondFail:
		d.Errorf(stage, check, cond, CondFail,
			"condition estimate %.3g exceeds %.3g; no trustworthy digits remain", cond, CondFail)
		return &simerr.IllConditionedError{Op: stage, Quantity: check, Value: cond, Limit: CondFail}
	case cond > CondWarn:
		d.Warnf(stage, check, cond, CondWarn, false,
			"condition estimate %.3g; expect ≤ %d trustworthy digits", cond, trustworthyDigits(cond))
	default:
		d.Infof(stage, check, cond, CondWarn, "condition estimate %.3g", cond)
	}
	return nil
}

// trustworthyDigits estimates remaining decimal digits: 16 − log10 κ.
func trustworthyDigits(cond float64) int {
	if cond <= 1 {
		return 16
	}
	dig := 16 - int(math.Ceil(math.Log10(cond)))
	if dig < 0 {
		dig = 0
	}
	return dig
}
