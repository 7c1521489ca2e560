package extract

import (
	"fmt"
	"math"

	"pdnsim/internal/bem"
	"pdnsim/internal/diag"
	"pdnsim/internal/greens"
	"pdnsim/internal/mat"
)

// Solve-path cost model (DESIGN.md §5l). Under Operator: auto the
// extraction predicts the wall time of both reductions from what the
// assembly already knows, and takes the cheaper one. The model reads no
// clock and no GOMAXPROCS, so one board takes the same path on any machine
// and its result is the same at any core count.
//
// The constants are least-squares fits (relative error) of measured
// reduction times, fastest of 3 at GOMAXPROCS 2 on a 2-vCPU VM, over 120
// generated boards: 64–1300 cells, 2–6 ports, 4–48 extra nodes, rect,
// L-shaped, polygon and holed outlines. The calibration table is in
// EXPERIMENTS.md ("Solve-path cost model").
const (
	// denseCubicNs prices the dense reduction's factorisations, triangular
	// solves and Gram product, which grow as cells³.
	denseCubicNs = 0.82
	// denseSquareNs prices, per entry of P and L (cells² + links²), the
	// on-demand copy of both out of the offset tables and the lower-order
	// terms of the level-3 kernels.
	denseSquareNs = 76
	// opFFTNs prices one apply of a Toeplitz operator or its circulant
	// preconditioner, per point of the padded px×py grid and per
	// log₂(px·py).
	opFFTNs = 0.95
	// opBandNs prices one null-space projection of a projected-CG iteration
	// per internal cell and per band of the projector's banded factor.
	opBandNs = 4.3
	// opVectorNs prices the vector updates, dot products and scatter/gather
	// of one CG iteration per unknown.
	opVectorNs = 23
	// opGatherNs prices C_red = Wᵀ·Z per kept node² × cell.
	opGatherNs = 7.5
	// opFixedNs is the fit's intercept: the operator path's set-up cost
	// that no size term carries.
	opFixedNs = 0.72e6
	// opMinSavingNs is the least predicted saving for which auto leaves the
	// dense reduction, the exact one that the operator path is held to. On
	// the calibration boards under 100 cells the model misses by up to 3 ms,
	// so a smaller predicted saving may be a loss; the co-simulation boards
	// (48–80 cells, a few kept nodes) sit there.
	opMinSavingNs = 1e6
)

// Expected CG iterations per kept column, base + slope·h/Δ. They grow with
// the plane separation h over the cell size Δ = √(Δx·Δy): a kernel that is
// wide against the cell couples more cells, which conditions P and L worse.
// On the calibration boards this line is within 6 % of the measured counts
// on average; outline, cell count and port placement move them much less.
// Past maxHeightRatio, and for the free-space kernel, which has no return
// plane to screen the coupling, the ratio is held at that bound.
const (
	projItersBase, projItersSlope = 8.3, 18.9
	capItersBase, capItersSlope   = 4.0, 5.2
	maxHeightRatio                = 2.0
)

// solvePath is the reduction path an extraction takes and why.
type solvePath struct {
	operator bool
	why      string
	// dense and op are the predicted costs in ns; op is 0 when the
	// operator path cannot run.
	dense, op float64
}

// chooseSolvePath decides the reduction path before it runs. An assembly
// without operators (Operator: dense, the direct fill a non-uniform mesh
// takes, a board without links) and a regularised extraction take the dense
// path; Operator: toeplitz takes the operator path; auto takes the path the
// cost model predicts cheaper.
func chooseSolvePath(a *bem.Assembly, reg float64, keep, internal []int) solvePath {
	p := solvePath{dense: denseCost(a)}
	ops := len(internal) > 0 && operatorsAvailable(a)
	if ops {
		p.op = operatorCost(a, len(keep), internal)
	}
	switch {
	case len(internal) == 0:
		p.why = "every cell kept"
	case !ops:
		p.why = "no operators, " + a.Opts.Operator.String() + " assembly"
	case reg > 0:
		// Diagonal loading is not representable in the Toeplitz product.
		p.why = "Regularize pins dense"
	case a.Opts.Operator == bem.OpToeplitz:
		p.operator, p.why = true, "Operator: toeplitz"
	default:
		p.operator, p.why = p.op+opMinSavingNs < p.dense, "cost model"
	}
	return p
}

// denseCost predicts the dense reduction's time in ns.
func denseCost(a *bem.Assembly) float64 {
	n, links := float64(len(a.Mesh.Cells)), float64(len(a.Mesh.Links))
	return denseCubicNs*n*n*n + denseSquareNs*(n*n+links*links)
}

// operatorCost predicts the operator reduction's time in ns for k kept
// nodes: k projected-CG solves on L, each iteration one apply of every L
// block and one banded projection; k preconditioned CG solves on P, each
// iteration a matvec and a preconditioner apply; the γ-scale power
// iteration's loose CG solves on L; and forming C_red.
func operatorCost(a *bem.Assembly, k int, internal []int) float64 {
	n, links, kf := float64(len(a.Mesh.Cells)), float64(len(a.Mesh.Links)), float64(k)
	ratio := maxHeightRatio
	if c := a.Mesh.Cells[0].Rect; a.Kernel.Mode != greens.FreeSpace {
		if r := a.Kernel.H / math.Sqrt(c.W()*c.H()); r < maxHeightRatio {
			ratio = r
		}
	}
	projPerCol := projItersBase + projItersSlope*ratio
	proj := kf * projPerCol
	capIters := kf * (capItersBase + capItersSlope*ratio)
	// The γ-scale solves stop at a looser tolerance: each takes the share
	// of a column's iterations that its digits are of operatorGammaTol's.
	scale := gammaScalePowerIters * projPerCol * math.Log(gammaScaleCGTol) / math.Log(operatorGammaTol)
	var lFFT float64
	for _, op := range a.LOps {
		if op != nil {
			lFFT += fftCost(op)
		}
	}
	bw := float64(a.Mesh.Bandwidth(a.Mesh.Positions(internal)))
	return opFFTNs*((proj+scale)*lFFT+2*capIters*fftCost(a.POp)) +
		opBandNs*proj*float64(len(internal))*bw +
		opVectorNs*(proj*links+capIters*n) +
		opGatherNs*kf*kf*n + opFixedNs
}

// fftCost is one apply's transform work: padded grid points × log₂ of them.
func fftCost(op *mat.ToeplitzOp) float64 {
	px, py := op.PaddedDims()
	pts := float64(px * py)
	return pts * math.Log2(pts)
}

// recordSolvePath leaves the path the reduction took as one "solve path"
// Info entry: Value is the predicted operator cost and Limit the predicted
// dense cost, both in ms (auto takes the operator path when Value is at
// least opMinSavingNs below Limit), and the message names the path, what
// decided it, the cell and kept-node counts and the operators' padded FFT
// grids.
func recordSolvePath(d *diag.Diagnostics, a *bem.Assembly, p solvePath, kept int) {
	taken, op, grids := "dense", "n/a", "none"
	if p.operator {
		taken = "operator"
	}
	if p.op > 0 {
		op, grids = fmt.Sprintf("%.3g ms", p.op/1e6), fftGrids(a)
	}
	d.Infof("extract", "solve path", p.op/1e6, p.dense/1e6,
		"%s (%s): predicted operator %s vs dense %.3g ms; %d cells, %d kept nodes; padded FFT grids %s",
		taken, p.why, op, p.dense/1e6, len(a.Mesh.Cells), kept, grids)
}
