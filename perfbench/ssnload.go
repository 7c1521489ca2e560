package main

import (
	"fmt"

	"pdnsim/internal/circuit"
	"pdnsim/internal/geom"
	"pdnsim/internal/pkgmodel"
	"pdnsim/internal/ssn"
)

// mmPt converts a millimetre coordinate pair to a plane point in metres.
func mmPt(p [2]float64) geom.Point { return geom.Point{X: p[0] * 1e-3, Y: p[1] * 1e-3} }

// system converts a scenario to the ssn package's inputs.
func (sc ssnScenario) system() (ssn.Board, ssn.VRM, []ssn.Chip, []ssn.Decap) {
	b := ssn.Board{
		Shape:    geom.RectShape(0, 0, sc.WMM*1e-3, sc.HMM*1e-3),
		PlaneSep: sc.PlaneSepMM * 1e-3, EpsR: 4.5, SheetRes: 0.6e-3,
		MeshNx: sc.MeshNx, MeshNy: sc.MeshNy, ExtraNodes: sc.ExtraNodes,
		BranchTol: 1e-4,
	}
	vrm := ssn.VRM{At: mmPt(sc.VRM), V: 3.3, R: 2e-3, L: 15e-9}
	var chips []ssn.Chip
	for _, c := range sc.Chips {
		kind := ssn.CMOSDriver
		if c.Kind == "ibis" {
			kind = ssn.IBISDriver
		}
		chips = append(chips, ssn.Chip{
			Name: c.Name, At: mmPt(c.At), Drivers: c.Drivers, Switching: c.Switching,
			Vdd: 3.3, Pin: pkgmodel.QFPPin, VddPins: 2, Kind: kind,
			LoadC: 15e-12, Delay: c.DelayPS * 1e-12, Width: 2.5e-9, Slew: 0.3e-9,
		})
	}
	var decaps []ssn.Decap
	for i, d := range sc.Decaps {
		decaps = append(decaps, ssn.Decap{Name: fmt.Sprintf("C%d", i+1), At: mmPt(d), C: 100e-9, ESR: 20e-3, ESL: 1e-9})
	}
	return b, vrm, chips, decaps
}

// ssnOutcome is the checked output of one co-simulation: per chip, the
// worst die ground bounce and rail droop (V).
type ssnOutcome struct {
	Bounce map[string]float64 `json:"ground_bounce_v"`
	Droop  map[string]float64 `json:"rail_droop_v"`
}

// ssnStats is the solver effort of one op, for the traced run.
type ssnStats struct {
	buildNs, tranNs int64
	steps, newton   int
}

// runScenario is one ssn-cosim op: ssn.Build, then the transient at the
// fixed window, then the SSN metrics. A non-nil tracer records the op and its
// two stages as spans of a job named after the scenario.
func runScenario(sc ssnScenario, tr *tracer) (ssnOutcome, ssnStats, error) {
	var st ssnStats
	b, vrm, chips, decaps := sc.system()
	t0 := now()
	sys, err := ssn.Build(b, vrm, chips, decaps)
	t1 := now()
	st.buildNs = int64(t1.Sub(t0))
	if err != nil {
		return ssnOutcome{}, st, err
	}
	rep, err := sys.Run(ssnDt, ssnTstop, circuit.Trapezoidal)
	t2 := now()
	st.tranNs = int64(t2.Sub(t1))
	if tr != nil {
		tr.add("job", "", sc.Name, t0, t2, 0)
		tr.add("ssn.build", "", sc.Name, t0, t1, 0)
		tr.add("circuit.tran", "", sc.Name, t1, t2, 0)
	}
	if err != nil {
		return ssnOutcome{}, st, err
	}
	st.steps = rep.Result.Stats.Steps
	st.newton = rep.Result.Stats.NewtonIterations
	return ssnOutcome{Bounce: rep.GroundBounce, Droop: rep.RailDroop}, st, nil
}

// mnaSize is the dimension of the circuit's MNA system: node unknowns plus
// the branch currents of voltage sources and inductors, read from the
// operating point's solution vector.
func mnaSize(c *circuit.Circuit) int {
	x, err := c.OP()
	if err != nil {
		return c.NumNodes() - 1
	}
	return len(x)
}
