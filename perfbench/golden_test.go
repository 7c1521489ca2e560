package main

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pdnsim/internal/sparam"
)

func loadOrFail(t *testing.T, workload string) *goldenFile {
	t.Helper()
	g, err := loadGoldens(".", workload)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGoldensCoverTheCorpora(t *testing.T) {
	for _, c := range []boardClass{denseClass, operatorClass, sweepClass} {
		g := loadOrFail(t, c.name)
		if len(g.Boards) != c.corpusSize() {
			t.Fatalf("%s: %d goldens for %d corpus boards", c.name, len(g.Boards), c.corpusSize())
		}
		for _, i := range []int{0, c.corpusSize() - 1} {
			b, err := c.corpusBoard(i)
			if err != nil {
				t.Fatal(err)
			}
			if gb := g.Boards[i]; gb.Name != b.Name || gb.Fingerprint != b.Fingerprint()[:16] {
				t.Fatalf("%s: golden %d is %s/%s, corpus has %s/%s (regenerate with -write-goldens)",
					c.name, i, gb.Name, gb.Fingerprint, b.Name, b.Fingerprint()[:16])
			}
		}
	}
	if g := loadOrFail(t, "ssn-cosim"); len(g.SSN) != ssnStrata*ssnPerStratum {
		t.Fatalf("ssn-cosim: %d goldens for %d scenarios", len(g.SSN), ssnStrata*ssnPerStratum)
	}
}

func TestPerturbedExtractionRejected(t *testing.T) {
	g := loadOrFail(t, denseClass.name).Boards[3]
	b, _ := denseClass.corpusBoard(3)
	fp := b.Fingerprint()
	if err := checkExtraction(&g, fp, g.CTotal*(1+1e-8), g.Nodes, g.Ports); err != nil {
		t.Fatalf("a 1e-8 relative difference must pass: %v", err)
	}
	if err := checkExtraction(&g, fp, g.CTotal*(1+3e-6), g.Nodes, g.Ports); err == nil {
		t.Fatal("a 3e-6 relative c_total_f error must be rejected")
	}
	if err := checkExtraction(&g, fp, g.CTotal, g.Nodes+1, g.Ports); err == nil {
		t.Fatal("a wrong node count must be rejected")
	}
	other, _ := denseClass.corpusBoard(4)
	if err := checkExtraction(&g, other.Fingerprint(), g.CTotal, g.Nodes, g.Ports); err == nil {
		t.Fatal("an output for a different board must be rejected")
	}
}

// librarySweep renders the Touchstone a library sweep of a corpus board
// produces — the package's own Y/Z/S path, independent of the checker's.
func librarySweep(t *testing.T, i int, sw sweepSpec) string {
	t.Helper()
	b, err := sweepClass.corpusBoard(i)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExtractCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sparam.SweepZCtx(context.Background(), sparam.LinSpace(sw.FMin, sw.FMax, sw.NF), 50, res.Network.PortZCtx)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := s.Touchstone(b.Name)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestSweepCheckerAgreesWithLibraryAndRejectsPerturbation(t *testing.T) {
	g := loadOrFail(t, sweepClass.name)
	for _, i := range []int{1, 14} { // a 3-port and a 2-port board, few and many nodes
		sw := sweepSpec{Board: i, FMin: 7e6, FMax: 3.1e9, NF: 40}
		ts := librarySweep(t, i, sw)
		if err := checkSweep(&g.Boards[i], sw, ts); err != nil {
			t.Fatalf("library sweep of %s disagrees with its golden network: %v", g.Boards[i].Name, err)
		}
		// Nudge the real part of one S entry in the middle of the sweep by
		// 1e-5, ten times the tolerance.
		lines := strings.Split(ts, "\n")
		row := strings.Fields(lines[len(lines)/2])
		var v float64
		fmt.Sscan(row[3], &v)
		row[3] = fmt.Sprintf("%.9e", v+1e-5)
		lines[len(lines)/2] = strings.Join(row, " ")
		if err := checkSweep(&g.Boards[i], sw, strings.Join(lines, "\n")); err == nil {
			t.Fatalf("%s: a perturbed S entry must be rejected", g.Boards[i].Name)
		}
		if err := checkSweep(&g.Boards[i], sweepSpec{Board: i, FMin: 7e6, FMax: 3.1e9, NF: 41}, ts); err == nil {
			t.Fatalf("%s: a sweep with a missing point must be rejected", g.Boards[i].Name)
		}
	}
}

func TestPerturbedSSNRejected(t *testing.T) {
	g := loadOrFail(t, "ssn-cosim").SSN[20]
	clone := func(scale float64) ssnOutcome {
		out := ssnOutcome{Bounce: map[string]float64{}, Droop: map[string]float64{}}
		for k, v := range g.Output.Bounce {
			out.Bounce[k] = v * scale
		}
		for k, v := range g.Output.Droop {
			out.Droop[k] = v
		}
		return out
	}
	if err := checkSSN(&g, clone(1+1e-6)); err != nil {
		t.Fatalf("a change inside the Newton band must pass: %v", err)
	}
	if err := checkSSN(&g, clone(1.01)); err == nil {
		t.Fatal("a 1% ground-bounce error must be rejected")
	}
	out := clone(1)
	delete(out.Droop, "U1")
	if err := checkSSN(&g, out); err == nil {
		t.Fatal("a missing chip must be rejected")
	}
}

func TestSSNGoldenReproduces(t *testing.T) {
	g := loadOrFail(t, "ssn-cosim")
	for _, i := range []int{0, 40} {
		out, _, err := runScenario(ssnCorpusScenario(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSSN(&g.SSN[i], out); err != nil {
			t.Fatal(err)
		}
	}
}
