package fdtd

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"pdnsim/internal/diag"
	"pdnsim/internal/geom"
	"pdnsim/internal/simerr"
)

func trustSim(t *testing.T, rsq float64) *Sim {
	t.Helper()
	s, err := New(geom.RectShape(0, 0, 10e-3, 10e-3), 8, 8, 0.4e-3, 4.5, rsq)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRunCFLViolationEscalates fault-injects a timestep past the Courant
// limit: the run must refuse with an ErrIllConditioned-class error carrying
// the dt/dtmax ratio and a structured Error diagnostic — not integrate an
// unconditionally unstable scheme.
func TestRunCFLViolationEscalates(t *testing.T) {
	s := trustSim(t, 0)
	dt := 2 * s.MaxStableDt()
	res, err := s.Run(context.Background(), RunOptions{Dt: dt, Tstop: 100 * dt})
	if !errors.Is(err, simerr.ErrIllConditioned) {
		t.Fatalf("dt past the Courant limit must escalate to ErrIllConditioned, got %v", err)
	}
	var ice *simerr.IllConditionedError
	if !errors.As(err, &ice) {
		t.Fatalf("want structured IllConditionedError, got %v", err)
	}
	if math.Abs(ice.Value-2) > 1e-9 || ice.Limit != 1 {
		t.Fatalf("escalation must carry the CFL ratio: value=%g limit=%g", ice.Value, ice.Limit)
	}
	if res == nil || res.Diag == nil {
		t.Fatal("refused run must still return its diagnostics")
	}
	if w, _ := res.Diag.Worst(); w != diag.Error {
		t.Fatalf("worst = %v; want Error\n%s", w, res.Diag.Render(true))
	}
}

// TestRunCFLWarnBand: a step inside CFLWarnRatio of the limit is formally
// stable but dispersion-degraded — it must run to completion with a Warning.
func TestRunCFLWarnBand(t *testing.T) {
	s := trustSim(t, 0)
	dt := 0.995 * s.MaxStableDt()
	res, err := s.Run(context.Background(), RunOptions{Dt: dt, Tstop: 10 * dt})
	if err != nil {
		t.Fatalf("dt inside the warn band must still run: %v", err)
	}
	if w, _ := res.Diag.Worst(); w != diag.Warning {
		t.Fatalf("worst = %v; want Warning\n%s", w, res.Diag.Render(true))
	}
	if !strings.Contains(res.Diag.Render(false), "CFL") {
		t.Fatalf("warn-band run must name the CFL margin:\n%s", res.Diag.Render(true))
	}
}

// TestRunHealthyMarginRecordsInfo: a comfortably-stable run carries its CFL
// margin as an Info record and nothing worse.
func TestRunHealthyMarginRecordsInfo(t *testing.T) {
	s := trustSim(t, 0.01)
	dt := 0.5 * s.MaxStableDt()
	res, err := s.Run(context.Background(), RunOptions{Dt: dt, Tstop: 200 * dt})
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := res.Diag.Worst(); !ok || w != diag.Info {
		t.Fatalf("healthy run: worst = %v (recorded %v); want Info\n%s", w, ok, res.Diag.Render(true))
	}
}

// TestEnergyWatchdogCatchesInstability fault-injects a negative sheet
// resistance — turning the loss term into gain, an exponentially unstable
// update that stays CFL-"legal" — and requires the energy watchdog to abort
// with ErrIllConditioned once the stored energy blows past the passivity
// bound, instead of returning exponentially growing garbage.
func TestEnergyWatchdogCatchesInstability(t *testing.T) {
	s := trustSim(t, 0)
	dt := 0.5 * s.MaxStableDt()
	// Gain: a = Rsq·dt/(2·Lsq) = -0.4 → the current update multiplies by
	// (1-a)/(1+a) ≈ 2.3 every step.
	s.Rsq = -0.8 * s.Lsq / dt
	// Seed a localized excitation so there is a field gradient to amplify.
	s.v[s.at(4, 4)] = 1
	res, err := s.Run(context.Background(), RunOptions{Dt: dt, Tstop: 500 * dt})
	if !errors.Is(err, simerr.ErrIllConditioned) {
		t.Fatalf("energy runaway must escalate to ErrIllConditioned, got %v", err)
	}
	var ice *simerr.IllConditionedError
	if !errors.As(err, &ice) || ice.Value <= ice.Limit {
		t.Fatalf("watchdog detail must carry energy > bound, got %+v", ice)
	}
	found := false
	for _, it := range res.Diag.Items() {
		if it.Check == "energy watchdog" && it.Severity == diag.Error {
			found = true
		}
	}
	if !found {
		t.Fatalf("watchdog trip must be in the diagnostic trail:\n%s", res.Diag.Render(true))
	}
}

// TestEnergyWatchdogToleratesDrivenRun: a hard-driven but passive run must
// NOT trip the watchdog — the injected-energy accounting has to keep the
// bound above any legitimately delivered energy.
func TestEnergyWatchdogToleratesDrivenRun(t *testing.T) {
	s := trustSim(t, 0)
	if _, err := s.AddPort("SRC", geom.Point{X: 5e-3, Y: 5e-3}, 1,
		func(t float64) float64 { return 5 }); err != nil {
		t.Fatal(err)
	}
	dt := 0.5 * s.MaxStableDt()
	// Start from zero energy: e0 = 0, so the bound is carried entirely by
	// the injection estimate. Run long enough for several watchdog checks.
	if _, err := s.Run(context.Background(), RunOptions{Dt: dt, Tstop: 1000 * dt}); err != nil {
		t.Fatalf("passive driven run tripped the watchdog: %v", err)
	}
}
