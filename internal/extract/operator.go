// Operator-path reduction (DESIGN.md §5l): when the assembly carries
// block-Toeplitz operators for P and the per-direction L blocks, the
// extraction never densifies the O(n³) systems. The three reduced networks
// are produced column by column — one solve per kept node — with every
// solve superlinear:
//
//   - Γ_red and the Guyan interpolant come from a projected (null-space)
//     conjugate gradient on the link inductance: column j of the reduced
//     inverse-inductance Laplacian is A_K·y where y minimises ½yᵀLy − bᵀy
//     over A_I·y = 0 (b = A_Kᵀe_j). The L matvec runs through the FFT
//     operators; the null-space projection solves with S = A_I·A_Iᵀ, the
//     internal grid Laplacian, which in raster order is banded with
//     bandwidth ≈ the grid row length and factors once via mat.BandCholesky.
//     The Lagrange multiplier of the same solve, v = S⁻¹A_I(b − L·y), is
//     exactly the Guyan column Γ_ii⁻¹·Γ_ik·e_j.
//   - C_red = Wᵀ·P⁻¹·W needs k circulant-preconditioned CG solves with the
//     Toeplitz P operator instead of a dense inverse.
//   - G_red is a Schur complement of the sparse conductance Laplacian whose
//     internal block is banded the same way, so it also factors via
//     BandCholesky (reduceConductance, which the dense path calls too).
//
// Any failure along the way (projection matrix not positive definite, CG
// non-convergence) is reported to the caller, which records a diagnostic
// and falls back to the dense path — the fallback ladder demanded by the
// trust contract.
package extract

import (
	"context"
	"fmt"
	"math"

	"pdnsim/internal/bem"
	"pdnsim/internal/diag"
	"pdnsim/internal/mat"
	"pdnsim/internal/mesh"
	"pdnsim/internal/simerr"
)

// operatorCapCGTol is the relative residual target for the capacitance
// solves P·z = w of the operator path. The reduced capacitance feeds branch
// values directly, so it is held one decade tighter than the documented
// dense-vs-CG agreement contract (operatorAgreeRelTol).
const operatorCapCGTol = 1e-12

// operatorGammaTol is the projected-CG convergence target for the inductive
// reduction, relative to the projected right-hand side. The reduction is a
// Schur cancellation, so the achievable agreement with the dense path is
// this tolerance amplified by the conditioning of Γ_ii.
const operatorGammaTol = 1e-11

// operatorAgreeRelTol is the documented agreement contract between the
// operator-path and dense-path reduced networks: entries of Γ_red, C_red
// and G_red match to this relative tolerance (against the matrix scale).
// It mirrors the checkpoint.ResumeRelTol contract style: a bound the test
// suite enforces, not a best case.
const operatorAgreeRelTol = 1e-6

// gammaScalePowerIters and gammaScaleCGTol configure the power iteration
// that estimates ‖Γ‖₂ for the PSD trust band on the reduced Γ. The scale
// only positions a roundoff band (diag.EigClipRel relative), so a loose CG
// tolerance and a handful of iterations give all the accuracy the check
// consumes.
const (
	gammaScalePowerIters = 6
	gammaScaleCGTol      = 1e-6
)

// operatorsAvailable reports whether the assembly carries every operator
// the reduction needs: P plus one inductance block per direction that has
// links.
func operatorsAvailable(a *bem.Assembly) bool {
	if a.POp == nil || len(a.Mesh.Links) == 0 {
		return false
	}
	for _, dir := range []mesh.Direction{mesh.DirX, mesh.DirY} {
		has := false
		for i := range a.Mesh.Links {
			if a.Mesh.Links[i].Dir == dir {
				has = true
				break
			}
		}
		if has && a.LOps[dir] == nil {
			return false
		}
	}
	return true
}

// linkInductance applies the links×links partial-inductance matrix through
// the per-direction Toeplitz blocks (orthogonal directions do not couple).
type linkInductance struct {
	n   int
	idx [2][]int // link indices per direction, in operator order
	ops [2]*mat.ToeplitzOp
	xb  [2][]float64
	yb  [2][]float64
}

func newLinkInductance(a *bem.Assembly) *linkInductance {
	l := &linkInductance{n: len(a.Mesh.Links)}
	for _, dir := range []mesh.Direction{mesh.DirX, mesh.DirY} {
		for i := range a.Mesh.Links {
			if a.Mesh.Links[i].Dir == dir {
				l.idx[dir] = append(l.idx[dir], i)
			}
		}
		l.ops[dir] = a.LOps[dir]
		l.xb[dir] = make([]float64, len(l.idx[dir]))
		l.yb[dir] = make([]float64, len(l.idx[dir]))
	}
	return l
}

func (l *linkInductance) Size() int { return l.n }

func (l *linkInductance) MulVecTo(dst, x []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for dir := 0; dir < 2; dir++ {
		if l.ops[dir] == nil || len(l.idx[dir]) == 0 {
			continue
		}
		for i, li := range l.idx[dir] {
			l.xb[dir][i] = x[li]
		}
		l.ops[dir].MulVecTo(l.yb[dir], l.xb[dir])
		for i, li := range l.idx[dir] {
			dst[li] = l.yb[dir][i]
		}
	}
}

// gridProjector projects link-space vectors onto null(A_I), the subspace of
// link currents with zero net flow into every internal cell. S = A_I·A_Iᵀ
// is the internal grid Laplacian grounded at the kept cells; internal cells
// keep their raster order, so S is banded and factors once.
type gridProjector struct {
	links []mesh.Link
	pos   []int // cell index -> position among internal cells, -1 if kept
	chol  *mat.BandCholesky
	t     []float64 // internal-space scratch
}

func newGridProjector(m *mesh.Mesh, internal []int) (*gridProjector, error) {
	packed, bw, pos := m.BandLaplacian(internal, nil)
	chol, err := mat.NewBandCholesky(len(internal), bw, packed)
	if err != nil {
		return nil, simerr.Tagf(simerr.ErrSingular, "extract: internal incidence Gramian not positive definite (isolated internal region?): %v", err)
	}
	return &gridProjector{links: m.Links, pos: pos, chol: chol, t: make([]float64, len(internal))}, nil
}

// mulAITo computes dst = A_I·x for a link vector x.
func (g *gridProjector) mulAITo(dst, x []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for i := range g.links {
		if p := g.pos[g.links[i].From]; p >= 0 {
			dst[p] += x[i]
		}
		if p := g.pos[g.links[i].To]; p >= 0 {
			dst[p] -= x[i]
		}
	}
}

// projectTo computes dst = (I − A_Iᵀ·S⁻¹·A_I)·x; dst and x may alias.
func (g *gridProjector) projectTo(dst, x []float64) {
	g.mulAITo(g.t, x)
	g.chol.SolveTo(g.t, g.t)
	if &dst[0] != &x[0] {
		copy(dst, x)
	}
	for i := range g.links {
		if p := g.pos[g.links[i].From]; p >= 0 {
			dst[i] -= g.t[p]
		}
		if p := g.pos[g.links[i].To]; p >= 0 {
			dst[i] += g.t[p]
		}
	}
}

// multiplier returns v = S⁻¹·A_I·r — the Lagrange multiplier of the
// constrained solve, which is exactly the Guyan column Γ_ii⁻¹·Γ_ik·e_j when
// r is the final residual b − L·y.
func (g *gridProjector) multiplier(r []float64) []float64 {
	v := make([]float64, len(g.t))
	g.mulAITo(v, r)
	g.chol.SolveTo(v, v)
	return v
}

// projectedCG minimises ½yᵀLy − bᵀy over the null space of A_I. It carries
// the PROJECTED residual through the recurrence (Gould–Hribar–Nocedal's
// residual-replacement form): the true residual b − L·y keeps an O(‖b‖)
// component in range(A_Iᵀ) — the Lagrange multiplier — so re-projecting it
// once the null-space part is small cancels catastrophically and the plain
// formulation stalls around √ε. Projecting the *update* keeps every stored
// quantity at the scale of the constrained residual. Returns the minimiser
// y and the true final residual r = b − L·y, recomputed with one extra
// matvec (its multiplier recovers the Guyan column), and the number of
// iterations performed.
func projectedCG(ctx context.Context, op mat.LinearOperator, proj *gridProjector, b []float64, tol float64, maxIter int) (y, r []float64, iters int, err error) {
	n := op.Size()
	if maxIter <= 0 {
		maxIter = 20 * n
	}
	y = make([]float64, n)
	r = make([]float64, n) // projected residual
	proj.projectTo(r, b)
	norm0 := math.Sqrt(mat.Dot(r, r))
	lp := make([]float64, n)
	trueResidual := func() []float64 {
		op.MulVecTo(lp, y)
		out := make([]float64, n)
		for i := range out {
			out[i] = b[i] - lp[i]
		}
		return out
	}
	if norm0 == 0 {
		return y, trueResidual(), 0, nil
	}
	p := append([]float64(nil), r...)
	rr := mat.Dot(r, r)
	for iter := 0; iter < maxIter; iter++ {
		if iter%cgProjCtxCheckEvery == 0 {
			if err := simerr.CheckCtx(ctx, "extract: projected CG"); err != nil {
				return nil, nil, iter, err
			}
		}
		op.MulVecTo(lp, p)
		pap := mat.Dot(p, lp)
		if pap <= 0 {
			return nil, nil, iter, simerr.Tagf(simerr.ErrSingular, "extract: projected CG breakdown (inductance operator not positive definite on the constraint space)")
		}
		alpha := rr / pap
		for i := 0; i < n; i++ {
			y[i] += alpha * p[i]
			r[i] -= alpha * lp[i]
		}
		proj.projectTo(r, r) // discard the multiplier component introduced by L·p
		rrNew := mat.Dot(r, r)
		if math.Sqrt(rrNew) <= tol*norm0 {
			return y, trueResidual(), iter + 1, nil
		}
		if rr == 0 {
			return nil, nil, iter, simerr.Tagf(simerr.ErrSingular, "extract: projected CG stalled before convergence")
		}
		beta := rrNew / rr
		rr = rrNew
		for i := 0; i < n; i++ {
			p[i] = r[i] + beta*p[i]
		}
	}
	return nil, nil, maxIter, simerr.Tagf(simerr.ErrNonConvergence, "extract: projected CG did not converge in %d iterations", maxIter)
}

// cgProjCtxCheckEvery matches mat's cgCtxCheckEvery: cancellation latency of
// a few matvecs without per-iteration overhead.
const cgProjCtxCheckEvery = 8

// operatorReduce produces the three reduced networks through the operator
// path. It returns the scale estimate used for the PSD trust band on Γ_red
// (a power-iteration ‖Γ‖₂ estimate standing in for the dense path's
// ‖Γ‖∞ — same order, which is all the roundoff band consumes). On success
// it records the CG iteration counts of every stage as one Info entry.
func operatorReduce(ctx context.Context, a *bem.Assembly, d *diag.Diagnostics, keep, internal []int) (gammaRed, cRed, gRed *mat.Matrix, gammaScale float64, err error) {
	nCells := len(a.Mesh.Cells)
	k := len(keep)
	lop := newLinkInductance(a)
	proj, err := newGridProjector(a.Mesh, internal)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	keepPos := a.Mesh.Positions(keep)

	// Inductive reduction: one projected-CG solve per kept node yields both
	// the Γ_red column (A_K·y) and the Guyan interpolant column (the
	// multiplier v). Columns run serially: the Toeplitz operators share
	// scratch and serial order keeps the result bitwise reproducible.
	gammaRed = mat.New(k, k)
	v := mat.New(len(internal), k)
	b := make([]float64, lop.Size())
	var projIters, projMax, capIters, capMax int
	for j := 0; j < k; j++ {
		if err := simerr.CheckCtx(ctx, "extract: inductance reduction"); err != nil {
			return nil, nil, nil, 0, err
		}
		for i := range b {
			b[i] = 0
		}
		cell := keep[j]
		for i := range a.Mesh.Links {
			if a.Mesh.Links[i].From == cell {
				b[i] = 1
			} else if a.Mesh.Links[i].To == cell {
				b[i] = -1
			}
		}
		y, r, iters, err := projectedCG(ctx, lop, proj, b, operatorGammaTol, 0)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		projIters, projMax = projIters+iters, max(projMax, iters)
		for i := range a.Mesh.Links {
			if p := keepPos[a.Mesh.Links[i].From]; p >= 0 {
				gammaRed.Add(p, j, y[i])
			}
			if p := keepPos[a.Mesh.Links[i].To]; p >= 0 {
				gammaRed.Add(p, j, -y[i])
			}
		}
		vj := proj.multiplier(r)
		for p := range internal {
			v.Set(p, j, vj[p])
		}
	}
	gammaRed.Symmetrize()

	// Capacitive reduction: C_red = Wᵀ·P⁻¹·W with W = [I; −v] in cell
	// space — k circulant-preconditioned CG solves against the Toeplitz P.
	w := guyanInterpolant(nCells, keep, internal, v)
	z := mat.New(nCells, k)
	wcol := make([]float64, nCells)
	for j := 0; j < k; j++ {
		if err := simerr.CheckCtx(ctx, "extract: capacitance reduction"); err != nil {
			return nil, nil, nil, 0, err
		}
		for i := 0; i < nCells; i++ {
			wcol[i] = w.At(i, j)
		}
		zj, iters, err := mat.ConjugateGradient(ctx, a.POp, a.POp, wcol, operatorCapCGTol, 0)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		capIters, capMax = capIters+iters, max(capMax, iters)
		for i := 0; i < nCells; i++ {
			z.Set(i, j, zj[i])
		}
	}
	cRed = guyanCongruence(w, z)

	// Resistive reduction: Schur complement of the sparse conductance
	// Laplacian; its internal block shares the banded structure of S.
	gRed, err = reduceConductance(a, keep, internal)
	if err != nil {
		return nil, nil, nil, 0, err
	}

	gammaScale, scaleIters, err := estimateGammaScale(ctx, a, lop)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	d.Infof("extract", "operator iterations", float64(projIters+capIters+scaleIters), 0,
		"projected CG %d (max %d per column), capacitance CG %d (max %d per column), γ-scale CG %d, over %d kept nodes; padded FFT grids %s",
		projIters, projMax, capIters, capMax, scaleIters, k, fftGrids(a))
	return gammaRed, cRed, gRed, gammaScale, nil
}

// fftGrids names the padded FFT grid (px×py) of P's operator and of each L
// block's: the transform size that sets the cost of every apply.
func fftGrids(a *bem.Assembly) string {
	px, py := a.POp.PaddedDims()
	s := fmt.Sprintf("P %d×%d", px, py)
	for dir, op := range a.LOps {
		if op != nil {
			px, py = op.PaddedDims()
			s += fmt.Sprintf(", L%v %d×%d", mesh.Direction(dir), px, py)
		}
	}
	return s
}

// guyanInterpolant returns the cell-indexed Guyan interpolant W (cells×k):
// row keep[j] is e_jᵀ and row internal[p] is −x[p,:], with x = Γ_ii⁻¹·Γ_ik
// from the inductive reduction (nil when no cell is internal).
func guyanInterpolant(nCells int, keep, internal []int, x *mat.Matrix) *mat.Matrix {
	w := mat.New(nCells, len(keep))
	for j, c := range keep {
		w.Set(c, j, 1)
	}
	for p, c := range internal {
		for j := range keep {
			w.Set(c, j, -x.At(p, j))
		}
	}
	return w
}

// guyanCongruence returns C_red = Wᵀ·(C·W), symmetrised, from the
// interpolant and the capacitance applied to it.
func guyanCongruence(w, cw *mat.Matrix) *mat.Matrix {
	cRed := w.T().Mul(cw)
	cRed.Symmetrize()
	return cRed
}

// reduceConductance Schur-reduces G = A·R⁻¹·Aᵀ onto the kept cells using a
// banded factorisation of the internal block. Both reduction paths call it,
// so G_red does not depend on the path. Returns nil for a lossless
// assembly.
func reduceConductance(a *bem.Assembly, keep, internal []int) (*mat.Matrix, error) {
	cond := a.Conductances()
	if cond == nil {
		return nil, nil
	}
	ni, k := len(internal), len(keep)
	packed, bw, intPos := a.Mesh.BandLaplacian(internal, cond)
	keepPos := a.Mesh.Positions(keep)
	gkk := mat.New(k, k)
	gik := mat.New(ni, k)
	for i, l := range a.Mesh.Links {
		g := cond[i]
		pf, pt := intPos[l.From], intPos[l.To]
		qf, qt := keepPos[l.From], keepPos[l.To]
		switch {
		case qf >= 0 && qt >= 0:
			gkk.Add(qf, qf, g)
			gkk.Add(qt, qt, g)
			gkk.Add(qf, qt, -g)
			gkk.Add(qt, qf, -g)
		case pf >= 0 && qt >= 0:
			gkk.Add(qt, qt, g)
			gik.Add(pf, qt, -g)
		case qf >= 0 && pt >= 0:
			gkk.Add(qf, qf, g)
			gik.Add(pt, qf, -g)
		}
	}
	if ni == 0 {
		return gkk, nil // every cell is kept: nothing to eliminate
	}
	chol, err := mat.NewBandCholesky(ni, bw, packed)
	if err != nil {
		return nil, simerr.Tagf(simerr.ErrSingular, "extract: internal conductance block not positive definite: %v", err)
	}
	col := make([]float64, ni)
	for j := 0; j < k; j++ {
		for p := 0; p < ni; p++ {
			col[p] = gik.At(p, j)
		}
		chol.SolveTo(col, col)
		// G_red column j = G_kk·e_j − G_ki·(G_ii⁻¹·G_ik·e_j).
		for p := 0; p < ni; p++ {
			if col[p] == 0 {
				continue
			}
			for q := 0; q < k; q++ {
				if gv := gik.At(p, q); gv != 0 {
					gkk.Add(q, j, -gv*col[p])
				}
			}
		}
	}
	gkk.Symmetrize()
	return gkk, nil
}

// estimateGammaScale runs a short power iteration on Γ = A·L⁻¹·Aᵀ using
// loose-tolerance CG inductance solves, returning a ‖Γ‖₂ estimate for the
// reduced-Γ PSD trust band and the CG iterations its solves took.
func estimateGammaScale(ctx context.Context, a *bem.Assembly, lop *linkInductance) (float64, int, error) {
	n := len(a.Mesh.Cells)
	z := make([]float64, n)
	for i := range z {
		z[i] = math.Sin(float64(i + 1)) // deterministic non-degenerate start
	}
	w := make([]float64, lop.Size())
	var lambda float64
	var iters int
	for it := 0; it < gammaScalePowerIters; it++ {
		if err := simerr.CheckCtx(ctx, "extract: gamma scale"); err != nil {
			return 0, iters, err
		}
		// w = Aᵀ·z over links.
		for i, l := range a.Mesh.Links {
			w[i] = z[l.From] - z[l.To]
		}
		u, its, err := mat.ConjugateGradient(ctx, lop, nil, w, gammaScaleCGTol, 0)
		iters += its
		if err != nil {
			return 0, iters, err
		}
		// z' = A·u over cells.
		for i := range z {
			z[i] = 0
		}
		for i, l := range a.Mesh.Links {
			z[l.From] += u[i]
			z[l.To] -= u[i]
		}
		lambda = math.Sqrt(mat.Dot(z, z))
		if lambda == 0 {
			return 0, iters, simerr.Tagf(simerr.ErrSingular, "extract: gamma scale power iteration collapsed")
		}
		inv := 1 / lambda
		for i := range z {
			z[i] *= inv
		}
	}
	return lambda, iters, nil
}
