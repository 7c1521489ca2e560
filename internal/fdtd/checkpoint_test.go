package fdtd

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"pdnsim/internal/checkpoint"
	"pdnsim/internal/geom"
	"pdnsim/internal/simerr"
)

// ckptSim builds a lossy plane pair with a driven port and a far passive
// observation port, so both recorded waveforms carry propagation dynamics.
func ckptSim(t *testing.T, src func(float64) float64) (*Sim, *Port, *Port) {
	t.Helper()
	s, err := New(geom.RectShape(0, 0, 50e-3, 40e-3), 24, 20, 0.3e-3, 4.5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	drv, err := s.AddPort("drv", geom.Point{X: 10e-3, Y: 10e-3}, 10, src)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := s.AddPort("obs", geom.Point{X: 40e-3, Y: 30e-3}, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, drv, obs
}

func assertFDTDWaveClose(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > checkpoint.ResumeRelTol*(1+math.Abs(want[i])) {
			t.Fatalf("%s diverges at sample %d: got %v want %v", name, i, got[i], want[i])
		}
	}
}

// TestFDTDKillAndResumeMatchesGolden cancels a checkpointed run at ~50% and
// resumes it on a fresh identical simulation; the stitched waveforms must
// match the uninterrupted run within checkpoint.ResumeRelTol.
func TestFDTDKillAndResumeMatchesGolden(t *testing.T) {
	step := func(tt float64) float64 { return 1 }

	sg, drvG, obsG := ckptSim(t, step)
	dt := 0.9 * sg.MaxStableDt()
	tstop := 1000 * dt
	golden, err := sg.Run(context.Background(), RunOptions{Dt: dt, Tstop: tstop})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tCancel := 500 * dt
	si, _, _ := ckptSim(t, func(tt float64) float64 {
		if tt >= tCancel {
			cancel()
		}
		return step(tt)
	})
	ck := filepath.Join(t.TempDir(), "fdtd.ckpt")
	_, err = si.Run(ctx, RunOptions{Dt: dt, Tstop: tstop,
		Checkpoint: checkpoint.Policy{Path: ck, Every: 128}})
	if !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("interrupted run must surface ErrCancelled, got %v", err)
	}

	sr, drvR, obsR := ckptSim(t, step)
	resumed, err := sr.Run(context.Background(), RunOptions{Dt: dt, Tstop: tstop, ResumeFrom: ck})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}

	assertFDTDWaveClose(t, "time axis", resumed.Time, golden.Time)
	assertFDTDWaveClose(t, "V(drv)", drvR.V, drvG.V)
	assertFDTDWaveClose(t, "V(obs)", obsR.V, obsG.V)
}

// TestFDTDResumeRejectsMismatch: snapshots only resume the exact simulation
// and window they came from.
func TestFDTDResumeRejectsMismatch(t *testing.T) {
	step := func(tt float64) float64 { return 1 }
	s1, _, _ := ckptSim(t, step)
	dt := 0.9 * s1.MaxStableDt()
	tstop := 300 * dt
	ck := filepath.Join(t.TempDir(), "fdtd.ckpt")
	if _, err := s1.Run(context.Background(), RunOptions{Dt: dt, Tstop: tstop,
		Checkpoint: checkpoint.Policy{Path: ck, Every: 100}}); err != nil {
		t.Fatal(err)
	}

	t.Run("different dt", func(t *testing.T) {
		s2, _, _ := ckptSim(t, step)
		_, err := s2.Run(context.Background(),
			RunOptions{Dt: 0.5 * dt, Tstop: tstop, ResumeFrom: ck})
		if !errors.Is(err, simerr.ErrBadInput) {
			t.Fatalf("dt mismatch must be ErrBadInput, got %v", err)
		}
	})
	t.Run("different grid", func(t *testing.T) {
		// Coarser grid: its Courant limit is larger, so dt passes the CFL
		// check and the mismatch is caught by resume validation itself.
		s2, err := New(geom.RectShape(0, 0, 50e-3, 40e-3), 20, 16, 0.3e-3, 4.5, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s2.AddPort("drv", geom.Point{X: 10e-3, Y: 10e-3}, 10, step); err != nil {
			t.Fatal(err)
		}
		_, err = s2.Run(context.Background(), RunOptions{Dt: dt, Tstop: tstop, ResumeFrom: ck})
		if !errors.Is(err, simerr.ErrBadInput) {
			t.Fatalf("grid mismatch must be ErrBadInput, got %v", err)
		}
	})
	t.Run("different ports", func(t *testing.T) {
		s2, _, _ := ckptSim(t, step)
		if _, err := s2.AddPort("extra", geom.Point{X: 25e-3, Y: 20e-3}, 75, nil); err != nil {
			t.Fatal(err)
		}
		_, err := s2.Run(context.Background(), RunOptions{Dt: dt, Tstop: tstop, ResumeFrom: ck})
		if !errors.Is(err, simerr.ErrBadInput) {
			t.Fatalf("port mismatch must be ErrBadInput, got %v", err)
		}
	})
	t.Run("wrong snapshot kind", func(t *testing.T) {
		wrong := filepath.Join(t.TempDir(), "wrong.ckpt")
		if err := checkpoint.Save(wrong, "tran", map[string]int{"step": 1}); err != nil {
			t.Fatal(err)
		}
		s2, _, _ := ckptSim(t, step)
		_, err := s2.Run(context.Background(), RunOptions{Dt: dt, Tstop: tstop, ResumeFrom: wrong})
		if !errors.Is(err, simerr.ErrBadInput) {
			t.Fatalf("wrong-kind snapshot must be ErrBadInput, got %v", err)
		}
	})
}
