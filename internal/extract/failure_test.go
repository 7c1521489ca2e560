package extract

import (
	"context"
	"errors"
	"testing"

	"pdnsim/internal/geom"
	"pdnsim/internal/simerr"
)

func TestExtractBadInputClass(t *testing.T) {
	if _, err := ExtractCtx(context.Background(), nil, Options{}); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("nil assembly must be ErrBadInput, got %v", err)
	}
	a := buildPlane(t, 1e-2, 1e-3, 4, 3, nil, nil)
	if _, err := ExtractCtx(context.Background(), a, Options{}); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("port-less mesh must be ErrBadInput, got %v", err)
	}
}

func TestExtractCancelledBeforeStart(t *testing.T) {
	a := buildPlane(t, 1e-2, 1e-3, 4, 6,
		[]geom.Point{{X: 1e-3, Y: 1e-3}}, []string{"P1"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExtractCtx(ctx, a, Options{ExtraNodes: 4})
	if !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("expired context must surface ErrCancelled, got %v", err)
	}
}

func TestExtractCtxMatchesExtract(t *testing.T) {
	a := buildPlane(t, 1e-2, 1e-3, 4, 6,
		[]geom.Point{{X: 1e-3, Y: 1e-3}}, []string{"P1"})
	n1, err := ExtractCtx(context.Background(), a, Options{ExtraNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := ExtractCtx(context.Background(), a, Options{ExtraNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n1.NumNodes() != n2.NumNodes() || n1.TotalCapacitance() != n2.TotalCapacitance() {
		t.Fatalf("ctx variant must match: %d/%g vs %d/%g",
			n1.NumNodes(), n1.TotalCapacitance(), n2.NumNodes(), n2.TotalCapacitance())
	}
}

func TestFosterModelBadPortClass(t *testing.T) {
	a := buildPlane(t, 1e-2, 1e-3, 4, 6,
		[]geom.Point{{X: 1e-3, Y: 1e-3}}, []string{"P1"})
	nw, err := ExtractCtx(context.Background(), a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.FosterModel(-1, 0); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("negative port must be ErrBadInput, got %v", err)
	}
	if _, err := nw.FosterModel(nw.NumPorts, 0); !errors.Is(err, simerr.ErrBadInput) {
		t.Fatalf("out-of-range port must be ErrBadInput, got %v", err)
	}
}
