package circuit

import (
	"context"
	"errors"
	"io/fs"
	"math"
	"path/filepath"
	"testing"

	"pdnsim/internal/checkpoint"
	"pdnsim/internal/simerr"
)

// cancelAtWave wraps a waveform and cancels a context the first time it is
// evaluated at or after tCancel — a deterministic SIGTERM-like interruption
// in the middle of a run.
type cancelAtWave struct {
	inner   Waveform
	tCancel float64
	cancel  context.CancelFunc
}

func (w *cancelAtWave) At(t float64) float64 {
	if t >= w.tCancel {
		w.cancel()
	}
	return w.inner.At(t)
}
func (w *cancelAtWave) AC() float64 { return w.inner.AC() }

// ckptCircuit is a ringing RLC network: a pulse through a damped L-C tank,
// so every sample carries real dynamics and a resume from stale or wrong
// state would visibly diverge.
func ckptCircuit(t testing.TB, w Waveform) (*Circuit, int) {
	t.Helper()
	c := New()
	vin := c.Node("vin")
	mid := c.Node("mid")
	out := c.Node("out")
	if _, err := c.AddVSource("V1", vin, Ground, w); err != nil {
		t.Fatal(err)
	}
	mustR(t, c, "R1", vin, mid, 1)
	if _, err := c.AddInductor("L1", mid, out, 5e-9); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddCapacitor("C1", out, Ground, 2e-12); err != nil {
		t.Fatal(err)
	}
	mustR(t, c, "R2", out, Ground, 25)
	return c, out
}

// assertWaveClose checks two waveforms agree within the documented resume
// tolerance (checkpoint.ResumeRelTol, mixed absolute/relative).
func assertWaveClose(t *testing.T, name string, got, want []float64) {
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

// TestTranKillAndResumeMatchesGolden is the survivability contract: a run
// cancelled at ~50% with checkpointing enabled, then resumed from the
// flushed snapshot, reproduces the uninterrupted run's waveforms within
// checkpoint.ResumeRelTol.
func TestTranKillAndResumeMatchesGolden(t *testing.T) {
	pulse := Pulse{V1: 0, V2: 1, Rise: 1e-9, Width: 40e-9}
	opts := TranOptions{Dt: 1e-9, Tstop: 100e-9}

	// Golden: uninterrupted run.
	cg, outg := ckptCircuit(t, pulse)
	golden, err := cg.Tran(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancelled mid-flight at ~50% of the window.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ck := filepath.Join(t.TempDir(), "tran.ckpt")
	ci, _ := ckptCircuit(t, &cancelAtWave{inner: pulse, tCancel: 50e-9, cancel: cancel})
	iopts := opts
	iopts.Ctx = ctx
	iopts.Checkpoint = checkpoint.Policy{Path: ck, Every: 10}
	_, err = ci.Tran(iopts)
	if !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("interrupted run must surface ErrCancelled, got %v", err)
	}

	// Resume: same configuration, fresh circuit, snapshot from the kill.
	cr, outr := ckptCircuit(t, pulse)
	ropts := opts
	ropts.ResumeFrom = ck
	resumed, err := cr.Tran(ropts)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}

	assertWaveClose(t, "time axis", resumed.Time, golden.Time)
	assertWaveClose(t, "V(out)", resumed.V(outr), golden.V(outg))
	ig, err := golden.SourceCurrent("V1")
	if err != nil {
		t.Fatal(err)
	}
	ir, err := resumed.SourceCurrent("V1")
	if err != nil {
		t.Fatal(err)
	}
	assertWaveClose(t, "I(V1)", ir, ig)
	if resumed.Stats.Steps != golden.Stats.Steps {
		t.Fatalf("restored stats must continue the counted steps: resumed %d, golden %d",
			resumed.Stats.Steps, golden.Stats.Steps)
	}
}

// cmosRailCircuit is a CMOS inverter behind a 2 nH package inductance with
// a 20 pF rail capacitor and a 0.5 pF load, driven by vin: every edge
// drives the pnjlim/fetlim limiters, so their state feeds the iterates.
func cmosRailCircuit(t testing.TB, vin Waveform) (*Circuit, int) {
	t.Helper()
	c := New()
	vdd := c.Node("vdd")
	rail := c.Node("rail")
	in := c.Node("in")
	out := c.Node("out")
	if _, err := c.AddVSource("VDD", vdd, Ground, DC(3.3)); err != nil {
		t.Fatal(err)
	}
	mustL(t, c, "Lpkg", vdd, rail, 2e-9)
	mustC(t, c, "Crail", rail, Ground, 20e-12)
	if _, err := c.AddVSource("VIN", in, Ground, vin); err != nil {
		t.Fatal(err)
	}
	cmosInverter(t, c, in, out, rail, 4e-3, 4e-3)
	mustC(t, c, "CL", out, Ground, 0.5e-12)
	return c, out
}

// TestNonlinearTranResumeIsBitwise: a nonlinear run cancelled mid-flight
// and resumed reproduces the uninterrupted run bit for bit. That needs the
// devices' limiter state in the snapshot, and the Newton low-rank columns
// to be a pure function of the factor key rather than of when they were
// first solved.
func TestNonlinearTranResumeIsBitwise(t *testing.T) {
	pulse := Pulse{V1: 0, V2: 3.3, Delay: 1e-9, Rise: 0.2e-9, Fall: 0.2e-9, Width: 3e-9}
	opts := TranOptions{Dt: 20e-12, Tstop: 7e-9, Method: Trapezoidal}

	cg, _ := cmosRailCircuit(t, pulse)
	golden, err := cg.Tran(opts)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ck := filepath.Join(t.TempDir(), "cmos.ckpt")
	ci, _ := cmosRailCircuit(t, &cancelAtWave{inner: pulse, tCancel: 1.1e-9, cancel: cancel})
	iopts := opts
	iopts.Ctx = ctx
	iopts.Checkpoint = checkpoint.Policy{Path: ck, Every: 1}
	if _, err := ci.Tran(iopts); !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("interrupted run must surface ErrCancelled, got %v", err)
	}

	cr, _ := cmosRailCircuit(t, pulse)
	ropts := opts
	ropts.ResumeFrom = ck
	resumed, err := cr.Tran(ropts)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	for node := 1; node < cg.NumNodes(); node++ {
		want, got := golden.V(node), resumed.V(node)
		if len(got) != len(want) {
			t.Fatalf("V(%s): %d samples, want %d", cg.NodeName(node), len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("V(%s) sample %d: resumed %v, uninterrupted %v", cg.NodeName(node), i, got[i], want[i])
			}
		}
	}
	if resumed.Stats != golden.Stats {
		t.Fatalf("resumed stats %+v, uninterrupted %+v", resumed.Stats, golden.Stats)
	}
}

// TestTranResumeRejectsLimiterMismatch: a snapshot whose limiter state does
// not fit the circuit's devices is ErrBadInput.
func TestTranResumeRejectsLimiterMismatch(t *testing.T) {
	pulse := Pulse{V1: 0, V2: 3.3, Delay: 1e-9, Rise: 0.2e-9, Fall: 0.2e-9, Width: 3e-9}
	ck := filepath.Join(t.TempDir(), "cmos.ckpt")
	c1, _ := cmosRailCircuit(t, pulse)
	opts := TranOptions{Dt: 20e-12, Tstop: 1e-9, Method: Trapezoidal}
	wopts := opts
	wopts.Checkpoint = checkpoint.Policy{Path: ck, Every: 10}
	if _, err := c1.Tran(wopts); err != nil {
		t.Fatal(err)
	}
	// The same node and branch set, with one device fewer.
	c2, _ := cmosRailCircuit(t, pulse)
	c2.devices = c2.devices[:1]
	ropts := opts
	ropts.ResumeFrom = ck
	if _, err := c2.Tran(ropts); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("device-count mismatch must be ErrBadInput, got %v", err)
	}
}

// TestTranMTLKillAndResume repeats the kill-and-resume contract on a
// transmission-line circuit: the Bergeron wave histories are part of the
// snapshot and a resume must replay reflections identically.
func TestTranMTLKillAndResume(t *testing.T) {
	// Mismatched load (200 Ω on a 50 Ω line) so reflections keep arriving
	// across the whole window — any history corruption shows up downstream.
	step := Pulse{V1: 0, V2: 2, Rise: 1e-12, Width: 1}
	opts := TranOptions{Dt: 0.05e-9, Tstop: 6e-9}

	cg, _, outg := buildTLineCircuit(t, 50, 1e-9, 50, 200, step)
	golden, err := cg.Tran(opts)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ck := filepath.Join(t.TempDir(), "mtl.ckpt")
	ci, _, _ := buildTLineCircuit(t, 50, 1e-9, 50, 200,
		&cancelAtWave{inner: step, tCancel: 3e-9, cancel: cancel})
	iopts := opts
	iopts.Ctx = ctx
	iopts.Checkpoint = checkpoint.Policy{Path: ck, Every: 7}
	if _, err := ci.Tran(iopts); !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("interrupted MTL run must surface ErrCancelled, got %v", err)
	}

	cr, _, outr := buildTLineCircuit(t, 50, 1e-9, 50, 200, step)
	ropts := opts
	ropts.ResumeFrom = ck
	resumed, err := cr.Tran(ropts)
	if err != nil {
		t.Fatalf("MTL resume failed: %v", err)
	}
	assertWaveClose(t, "V(out)", resumed.V(outr), golden.V(outg))
}

// TestTranResumeOfCompletedRun: the final snapshot of a finished run resumes
// to the complete result without stepping again.
func TestTranResumeOfCompletedRun(t *testing.T) {
	pulse := Pulse{V1: 0, V2: 1, Rise: 1e-9, Width: 5e-9}
	ck := filepath.Join(t.TempDir(), "done.ckpt")
	opts := TranOptions{Dt: 1e-9, Tstop: 10e-9, Checkpoint: checkpoint.Policy{Path: ck, Every: 1000}}

	c1, out1 := ckptCircuit(t, pulse)
	full, err := c1.Tran(opts)
	if err != nil {
		t.Fatal(err)
	}

	c2, out2 := ckptCircuit(t, pulse)
	ropts := TranOptions{Dt: 1e-9, Tstop: 10e-9, ResumeFrom: ck}
	resumed, err := c2.Tran(ropts)
	if err != nil {
		t.Fatalf("resume of a completed run failed: %v", err)
	}
	assertWaveClose(t, "V(out)", resumed.V(out2), full.V(out1))
	if resumed.Stats.Steps != full.Stats.Steps {
		t.Fatalf("no extra steps expected, got %d want %d", resumed.Stats.Steps, full.Stats.Steps)
	}
}

// TestTranResumeRejectsMismatchedConfig: a snapshot only resumes the exact
// run it came from; every config or circuit mismatch is ErrBadInput.
func TestTranResumeRejectsMismatchedConfig(t *testing.T) {
	pulse := Pulse{V1: 0, V2: 1, Rise: 1e-9, Width: 5e-9}
	ck := filepath.Join(t.TempDir(), "cfg.ckpt")
	c1, _ := ckptCircuit(t, pulse)
	if _, err := c1.Tran(TranOptions{Dt: 1e-9, Tstop: 10e-9,
		Checkpoint: checkpoint.Policy{Path: ck, Every: 3}}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		opts TranOptions
	}{
		{"different dt", TranOptions{Dt: 2e-9, Tstop: 10e-9, ResumeFrom: ck}},
		{"different tstop", TranOptions{Dt: 1e-9, Tstop: 20e-9, ResumeFrom: ck}},
		{"different method", TranOptions{Dt: 1e-9, Tstop: 10e-9, Method: BackwardEuler, ResumeFrom: ck}},
		{"different uic", TranOptions{Dt: 1e-9, Tstop: 10e-9, UIC: true, ResumeFrom: ck}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := ckptCircuit(t, pulse)
			if _, err := c.Tran(tc.opts); !errors.Is(err, simerr.ErrBadInput) {
				t.Fatalf("mismatched resume must be ErrBadInput, got %v", err)
			}
		})
	}

	t.Run("different circuit", func(t *testing.T) {
		c := New()
		n := c.Node("n")
		if _, err := c.AddVSource("V1", n, Ground, pulse); err != nil {
			t.Fatal(err)
		}
		mustR(t, c, "R1", n, Ground, 50)
		_, err := c.Tran(TranOptions{Dt: 1e-9, Tstop: 10e-9, ResumeFrom: ck})
		if !errors.Is(err, simerr.ErrBadInput) {
			t.Fatalf("foreign circuit resume must be ErrBadInput, got %v", err)
		}
	})
}

// TestTranResumeRejectsWrongKindAndMissingFile: snapshot-kind confusion is
// ErrBadInput; a missing file keeps its *fs.PathError so the CLI maps it to
// the I/O exit code.
func TestTranResumeRejectsWrongKindAndMissingFile(t *testing.T) {
	pulse := Pulse{V1: 0, V2: 1, Rise: 1e-9, Width: 5e-9}
	dir := t.TempDir()

	wrong := filepath.Join(dir, "wrong.ckpt")
	if err := checkpoint.Save(wrong, "fdtd", map[string]int{"nx": 4}); err != nil {
		t.Fatal(err)
	}
	c1, _ := ckptCircuit(t, pulse)
	if _, err := c1.Tran(TranOptions{Dt: 1e-9, Tstop: 10e-9, ResumeFrom: wrong}); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("wrong-kind snapshot must be ErrBadInput, got %v", err)
	}

	c2, _ := ckptCircuit(t, pulse)
	_, err := c2.Tran(TranOptions{Dt: 1e-9, Tstop: 10e-9,
		ResumeFrom: filepath.Join(dir, "nope.ckpt")})
	var pe *fs.PathError
	if !errors.As(err, &pe) {
		t.Fatalf("missing snapshot must keep its fs.PathError, got %v", err)
	}
}
