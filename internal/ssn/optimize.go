package ssn

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"

	"pdnsim/internal/geom"
	"pdnsim/internal/mat"

	"pdnsim/internal/simerr"
)

// The paper's §6.2 motivation: decaps are placed "play it safe and put as
// much as you could"; the simulation flow should instead *optimize the
// decoupling strategy which includes the placement, number, and value of
// decaps necessary for noise reduction against design margin*. OptimizeDecaps
// implements that: a greedy frequency-domain placement that drives the PDN
// impedance seen at an observation port below a target mask using the
// fewest capacitors from a candidate set.

// DecapCandidate is one mountable capacitor option: a site plus part value.
type DecapCandidate struct {
	At       geom.Point
	C        float64
	ESR, ESL float64
}

// OptimizeSpec configures the optimisation.
type OptimizeSpec struct {
	Board      Board
	VRM        VRM
	Observe    geom.Point // where the impedance mask applies (chip Vdd pins)
	Candidates []DecapCandidate

	TargetOhm      float64 // impedance mask: max |Z(f)| allowed
	FminHz, FmaxHz float64
	NFreq          int // frequency samples (log-spaced), default 40
	MaxDecaps      int // budget, default len(Candidates)
}

// OptimizeResult reports the chosen population.
type OptimizeResult struct {
	Chosen      []int     // indices into Candidates, in selection order
	PeakHistory []float64 // worst-case |Z| before each selection and after the last
	Met         bool      // mask satisfied within budget
}

// OptimizeDecaps greedily selects decaps that minimise the worst-case PDN
// impedance at the observation port. The plane is extracted once; each
// candidate subset is evaluated in the frequency domain by stamping the
// decap and VRM admittances onto the reduced network. ctx cancels the
// extraction and is checked before each candidate evaluation.
func OptimizeDecaps(ctx context.Context, spec OptimizeSpec) (*OptimizeResult, error) {
	if len(spec.Candidates) == 0 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "ssn: no decap candidates")
	}
	if spec.TargetOhm <= 0 {
		return nil, simerr.Tagf(simerr.ErrBadInput, "ssn: target impedance must be positive")
	}
	if spec.FminHz <= 0 || spec.FmaxHz <= spec.FminHz {
		return nil, simerr.Tagf(simerr.ErrBadInput, "ssn: invalid frequency band")
	}
	if spec.NFreq <= 0 {
		spec.NFreq = 40
	}
	if spec.MaxDecaps <= 0 || spec.MaxDecaps > len(spec.Candidates) {
		spec.MaxDecaps = len(spec.Candidates)
	}

	m, err := planeMesh(spec.Board)
	if err != nil {
		return nil, err
	}
	if _, err := m.AddPort("OBS", spec.Observe); err != nil {
		return nil, fmt.Errorf("ssn: observation port: %w", err)
	}
	if _, err := m.AddPort("VRM", spec.VRM.At); err != nil {
		return nil, fmt.Errorf("ssn: VRM port: %w", err)
	}
	for i, c := range spec.Candidates {
		if c.C <= 0 {
			return nil, simerr.Tagf(simerr.ErrBadInput, "ssn: candidate %d has no capacitance", i)
		}
		if _, err := m.AddPort(fmt.Sprintf("CAND%d", i), c.At); err != nil {
			return nil, fmt.Errorf("ssn: candidate %d: %w", i, err)
		}
	}
	nw, err := extractPlane(ctx, spec.Board, m)
	if err != nil {
		return nil, err
	}

	freqs := logSpace(spec.FminHz, spec.FmaxHz, spec.NFreq)
	// Pre-build the plane Y at each frequency; the candidate loop only
	// restamps the (tiny) shunt admittances.
	baseY := make([]*mat.CMatrix, len(freqs))
	for i, f := range freqs {
		baseY[i] = nw.Y(2 * math.Pi * f)
	}

	// Port node indices within the reduced network: OBS=0, VRM=1, CANDi=2+i.
	peakFor := func(chosen []bool) (float64, error) {
		worst := 0.0
		for i, f := range freqs {
			omega := 2 * math.Pi * f
			y := baseY[i].Clone()
			// VRM output impedance path to the reference.
			zv := complex(math.Max(spec.VRM.R, 1e-6), omega*math.Max(spec.VRM.L, 0))
			y.Add(1, 1, 1/zv)
			for ci, on := range chosen {
				if !on {
					continue
				}
				c := spec.Candidates[ci]
				zc := complex(math.Max(c.ESR, 1e-6), omega*c.ESL-1/(omega*c.C))
				y.Add(2+ci, 2+ci, 1/zc)
			}
			rhs := make([]complex128, y.Rows)
			rhs[0] = 1
			v, err := mat.CSolve(y, rhs)
			if err != nil {
				return 0, err
			}
			if zmag := cmplx.Abs(v[0]); zmag > worst {
				worst = zmag
			}
		}
		return worst, nil
	}

	chosen := make([]bool, len(spec.Candidates))
	res := &OptimizeResult{}
	current, err := peakFor(chosen)
	if err != nil {
		return nil, err
	}
	res.PeakHistory = append(res.PeakHistory, current)
	for len(res.Chosen) < spec.MaxDecaps && current > spec.TargetOhm {
		bestIdx, bestPeak := -1, current
		for ci := range spec.Candidates {
			if chosen[ci] {
				continue
			}
			if err := simerr.CheckCtx(ctx, "ssn: optimize decaps"); err != nil {
				return nil, err
			}
			chosen[ci] = true
			p, err := peakFor(chosen)
			chosen[ci] = false
			if err != nil {
				return nil, err
			}
			if p < bestPeak {
				bestIdx, bestPeak = ci, p
			}
		}
		if bestIdx < 0 {
			break // no candidate improves the mask further
		}
		chosen[bestIdx] = true
		current = bestPeak
		res.Chosen = append(res.Chosen, bestIdx)
		res.PeakHistory = append(res.PeakHistory, current)
	}
	res.Met = current <= spec.TargetOhm
	return res, nil
}

// logSpace returns n logarithmically spaced frequencies.
func logSpace(f0, f1 float64, n int) []float64 {
	if n < 2 {
		return []float64{f0}
	}
	out := make([]float64, n)
	l0, l1 := math.Log(f0), math.Log(f1)
	for i := range out {
		out[i] = math.Exp(l0 + (l1-l0)*float64(i)/float64(n-1))
	}
	return out
}
