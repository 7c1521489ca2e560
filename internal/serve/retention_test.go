package serve

import (
	"context"
	"strings"
	"testing"
	"time"
)

// retentionBoard is an 8×8-cell, two-port plane: extraction and a short
// sweep take milliseconds.
const retentionBoard = `{
  "name": "retention plane",
  "shape": {"type": "rect", "w_mm": 20, "h_mm": 20},
  "plane_sep_mm": 0.5,
  "eps_r": 4.5,
  "sheet_res_ohm_sq": 0.001,
  "mesh_nx": 8,
  "mesh_ny": 8,
  "extra_nodes": 6,
  "ports": [
    {"name": "P1", "x_mm": 1, "y_mm": 1},
    {"name": "P2", "x_mm": 19, "y_mm": 19}
  ]
}`

// TestFinishedJobReleasesSolveState checks that a terminal sweep job keeps
// only what its status, netlist and touchstone bodies serve: not the
// network, the S matrices, the done mask, the frequency grid or the
// per-point statuses. A daemon retains up to MaxJobs finished jobs, so
// anything more grows its memory with every completed job.
func TestFinishedJobReleasesSolveState(t *testing.T) {
	s := New(Config{Workers: 2, ShardPoints: 2}, Hooks{})
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	t.Cleanup(func() {
		dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer dcancel()
		s.Drain(dctx)
		cancel()
	})
	const nf = 6
	id, err := s.Submit(context.Background(), &JobRequest{
		Board: []byte(retentionBoard),
		Sweep: &SweepSpec{FMin: 1e6, FMax: 1e9, NF: nf},
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	var st JobStatus
	for {
		if st, err = s.JobStatus(id); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != StateDone || st.Sweep == nil || st.Sweep.Points != nf {
		t.Fatalf("status = %+v, want done with a %d-point sweep report", st, nf)
	}
	ts, err := s.Touchstone(id)
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(ts, "\n") - 2; rows != nf { // less the comment and option lines
		t.Fatalf("touchstone has %d data rows, want %d:\n%s", rows, nf, ts)
	}
	if nl, err := s.Netlist(id); err != nil || nl == "" {
		t.Fatalf("netlist = %q, %v", nl, err)
	}

	s.mu.Lock()
	jb := s.jobs[id]
	held := map[string]bool{"network": jb.network != nil, "points": jb.points != nil}
	s.mu.Unlock()
	jb.sweepMu.Lock()
	held["freqs"], held["results"], held["done"] = jb.freqs != nil, jb.results != nil, jb.done != nil
	jb.sweepMu.Unlock()
	for field, ok := range held {
		if ok {
			t.Errorf("finished job still holds its %s", field)
		}
	}
}
