package fdtd

import (
	"context"
	"math"
	"testing"

	"pdnsim/internal/geom"
	"pdnsim/internal/greens"
)

func TestNewValidation(t *testing.T) {
	sh := geom.RectShape(0, 0, 10e-3, 10e-3)
	if _, err := New(sh, 1, 5, 0.3e-3, 4.5, 0); err == nil {
		t.Fatal("tiny grid must error")
	}
	if _, err := New(sh, 10, 10, -1, 4.5, 0); err == nil {
		t.Fatal("negative separation must error")
	}
	if _, err := New(geom.Shape{}, 10, 10, 0.3e-3, 4.5, 0); err == nil {
		t.Fatal("empty shape must error")
	}
}

func TestRunValidation(t *testing.T) {
	s, err := New(geom.RectShape(0, 0, 10e-3, 10e-3), 10, 10, 0.3e-3, 4.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), RunOptions{Dt: 0, Tstop: 1e-9}); err == nil {
		t.Fatal("zero dt must error")
	}
	if _, err := s.Run(context.Background(), RunOptions{Dt: 10 * s.MaxStableDt(), Tstop: 1e-9}); err == nil {
		t.Fatal("Courant violation must error")
	}
	if _, err := s.AddPort("P", geom.Point{}, -5, nil); err == nil {
		t.Fatal("negative port resistance must error")
	}
}

func TestCourantLimitScalesWithGrid(t *testing.T) {
	coarse, _ := New(geom.RectShape(0, 0, 10e-3, 10e-3), 10, 10, 0.3e-3, 4.5, 0)
	fine, _ := New(geom.RectShape(0, 0, 10e-3, 10e-3), 20, 20, 0.3e-3, 4.5, 0)
	if fine.MaxStableDt() >= coarse.MaxStableDt() {
		t.Fatal("finer grid must demand a smaller step")
	}
}

// DC steady state through two resistive ports must settle to the Thevenin
// divider value.
func TestDCDividerSteadyState(t *testing.T) {
	s, err := New(geom.RectShape(0, 0, 10e-3, 10e-3), 16, 16, 0.3e-3, 4.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	src, err := s.AddPort("SRC", geom.Point{X: 1e-3, Y: 1e-3}, 25, func(float64) float64 { return 2 })
	if err != nil {
		t.Fatal(err)
	}
	load, err := s.AddPort("LOAD", geom.Point{X: 9e-3, Y: 9e-3}, 75, nil)
	if err != nil {
		t.Fatal(err)
	}
	dt := 0.9 * s.MaxStableDt()
	if _, err := s.Run(context.Background(), RunOptions{Dt: dt, Tstop: 30e-9}); err != nil {
		t.Fatal(err)
	}
	want := 2 * 75.0 / 100.0
	if v := load.V[len(load.V)-1]; math.Abs(v-want) > 0.02 {
		t.Fatalf("load settles to %g want %g", v, want)
	}
	if v := src.V[len(src.V)-1]; math.Abs(v-want) > 0.02 {
		t.Fatalf("source node settles to %g want %g", v, want)
	}
}

// A narrow strip of plane behaves as a 1-D line: the wavefront must arrive
// after length/velocity.
func TestTimeOfFlight(t *testing.T) {
	length := 40e-3
	epsR := 4.5
	s, err := New(geom.RectShape(0, 0, length, 2e-3), 100, 5, 0.3e-3, epsR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddPort("SRC", geom.Point{X: 0, Y: 1e-3}, 1,
		func(t float64) float64 { return 1 }); err != nil {
		t.Fatal(err)
	}
	far, err := s.AddPort("FAR", geom.Point{X: length, Y: 1e-3}, 1e6, nil)
	if err != nil {
		t.Fatal(err)
	}
	dt := 0.9 * s.MaxStableDt()
	res, err := s.Run(context.Background(), RunOptions{Dt: dt, Tstop: 1.2e-9})
	if err != nil {
		t.Fatal(err)
	}
	vWave := greens.C0 / math.Sqrt(epsR)
	tdExpect := length / vWave // ≈ 0.28 ns
	var tArrive float64
	for i, v := range far.V {
		if v > 0.5 {
			tArrive = res.Time[i]
			break
		}
	}
	if tArrive == 0 {
		t.Fatal("wavefront never arrived")
	}
	if e := math.Abs(tArrive-tdExpect) / tdExpect; e > 0.12 {
		t.Fatalf("time of flight %g want %g (err %.3f)", tArrive, tdExpect, e)
	}
}

// Lossless grid conserves energy after the excitation ends.
func TestEnergyConservationLossless(t *testing.T) {
	s, err := New(geom.RectShape(0, 0, 10e-3, 10e-3), 24, 24, 0.3e-3, 4.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Excite with a short pulse through a large resistor, then detach by
	// making the source voltage zero: the resistor keeps draining slightly,
	// so use a very large R to make the drain negligible over the window.
	if _, err := s.AddPort("SRC", geom.Point{X: 5e-3, Y: 5e-3}, 1e6,
		func(t float64) float64 {
			if t < 0.05e-9 {
				return 1e4
			}
			return 0
		}); err != nil {
		t.Fatal(err)
	}
	dt := 0.9 * s.MaxStableDt()
	if _, err := s.Run(context.Background(), RunOptions{Dt: dt, Tstop: 0.2e-9}); err != nil {
		t.Fatal(err)
	}
	e0 := s.TotalEnergy()
	if e0 <= 0 {
		t.Fatal("no energy injected")
	}
	if _, err := s.Run(context.Background(), RunOptions{Dt: dt, Tstop: 2e-9}); err != nil {
		t.Fatal(err)
	}
	// V and I live at staggered half-steps, so the instantaneous energy sum
	// carries a few percent of measurement ripple; what matters is that it
	// neither grows (instability) nor decays substantially (spurious loss).
	e1 := s.TotalEnergy()
	if math.Abs(e1-e0)/e0 > 0.06 {
		t.Fatalf("lossless energy drifted: %g → %g", e0, e1)
	}
}

// Sheet resistance must dissipate energy.
func TestLossDissipates(t *testing.T) {
	run := func(rsq float64) float64 {
		s, err := New(geom.RectShape(0, 0, 10e-3, 10e-3), 20, 20, 0.3e-3, 4.5, rsq)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddPort("SRC", geom.Point{X: 5e-3, Y: 5e-3}, 10,
			func(t float64) float64 {
				if t < 0.05e-9 {
					return 5
				}
				return 0
			}); err != nil {
			t.Fatal(err)
		}
		dt := 0.9 * s.MaxStableDt()
		if _, err := s.Run(context.Background(), RunOptions{Dt: dt, Tstop: 3e-9}); err != nil {
			t.Fatal(err)
		}
		return s.TotalEnergy()
	}
	if eLossy, eLossless := run(0.5), run(0); eLossy >= eLossless {
		t.Fatalf("resistive plane must dissipate: %g vs %g", eLossy, eLossless)
	}
}

// The ringing of a square plane must contain the fundamental cavity mode:
// correlate the port ring-down against the analytic f10.
func TestCavityModeFrequency(t *testing.T) {
	side := 20e-3
	epsR := 4.5
	s, err := New(geom.RectShape(0, 0, side, side), 40, 40, 0.5e-3, epsR, 0)
	if err != nil {
		t.Fatal(err)
	}
	port, err := s.AddPort("P", geom.Point{X: 0.2e-3, Y: 0.2e-3}, 50,
		func(t float64) float64 {
			if t < 0.03e-9 {
				return 10
			}
			return 0
		})
	if err != nil {
		t.Fatal(err)
	}
	dt := 0.9 * s.MaxStableDt()
	res, err := s.Run(context.Background(), RunOptions{Dt: dt, Tstop: 4e-9})
	if err != nil {
		t.Fatal(err)
	}
	f10 := greens.C0 / (2 * side * math.Sqrt(epsR))
	// Remove the slow RC discharge through the port (mean subtraction) and
	// apply a Hann window before scanning single-bin DFT magnitudes.
	sig := append([]float64{}, port.V...)
	var mean float64
	for _, v := range sig {
		mean += v
	}
	mean /= float64(len(sig))
	tw := res.Time[len(res.Time)-1]
	for i := range sig {
		w := 0.5 * (1 - math.Cos(2*math.Pi*res.Time[i]/tw))
		sig[i] = (sig[i] - mean) * w
	}
	best, bestMag := 0.0, 0.0
	for f := 0.6 * f10; f <= 1.45*f10; f += f10 / 100 {
		var re, im float64
		for i, v := range sig {
			ph := 2 * math.Pi * f * res.Time[i]
			re += v * math.Cos(ph)
			im += v * math.Sin(ph)
		}
		if m := math.Hypot(re, im); m > bestMag {
			best, bestMag = f, m
		}
	}
	if e := math.Abs(best-f10) / f10; e > 0.1 {
		t.Fatalf("cavity mode at %g GHz, want %g GHz (err %.3f)", best/1e9, f10/1e9, e)
	}
}
