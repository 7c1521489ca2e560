package fdtd

import (
	"context"
	"errors"
	"math"
	"testing"

	"pdnsim/internal/geom"
	"pdnsim/internal/simerr"
)

func TestNewBadInputClass(t *testing.T) {
	sh := geom.RectShape(0, 0, 10e-3, 10e-3)
	if _, err := New(sh, 10, 10, math.NaN(), 4.5, 0); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("NaN separation must be ErrBadInput, got %v", err)
	}
	if _, err := New(sh, 10, 10, 0.3e-3, math.NaN(), 0); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("NaN permittivity must be ErrBadInput, got %v", err)
	}
	if _, err := New(sh, 10, 10, 0.3e-3, 4.5, math.NaN()); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("NaN sheet resistance must be ErrBadInput, got %v", err)
	}
	if _, err := New(sh, 1, 5, 0.3e-3, 4.5, 0); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("tiny grid must be ErrBadInput, got %v", err)
	}
	s, err := New(sh, 10, 10, 0.3e-3, 4.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddPort("P", geom.Point{}, math.NaN(), nil); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("NaN port resistance must be ErrBadInput, got %v", err)
	}
	if _, err := s.Run(context.Background(), RunOptions{Dt: math.NaN(), Tstop: 1e-9}); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("NaN dt must be ErrBadInput, got %v", err)
	}
}

func TestRunCancellation(t *testing.T) {
	s, err := New(geom.RectShape(0, 0, 50e-3, 40e-3), 20, 20, 0.3e-3, 4.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dt := 0.9 * s.MaxStableDt()
	// The expired context is noticed at the first stride check.
	_, err = s.Run(ctx, RunOptions{Dt: dt, Tstop: 1000 * float64(ctxCheckStride) * dt})
	if !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("expired context must surface ErrCancelled, got %v", err)
	}
}

func TestRunNaNSourceSurfacesErrNaN(t *testing.T) {
	s, err := New(geom.RectShape(0, 0, 10e-3, 10e-3), 10, 10, 0.3e-3, 4.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A source that goes NaN mid-run poisons the port cell within one step.
	_, err = s.AddPort("drv", geom.Point{X: 5e-3, Y: 5e-3}, 10, func(t float64) float64 {
		if t > 50e-12 {
			return math.NaN()
		}
		return 1
	})
	if err != nil {
		t.Fatal(err)
	}
	dt := 0.9 * s.MaxStableDt()
	_, err = s.Run(context.Background(), RunOptions{Dt: dt, Tstop: 2000 * dt})
	if !errors.Is(err, simerr.ErrNaN) {
		t.Fatalf("NaN source must surface ErrNaN, got %v", err)
	}
	var ne *simerr.NaNError
	if !errors.As(err, &ne) || ne.Unknown == "" {
		t.Fatalf("NaN error must name the port, got %v", err)
	}
}
