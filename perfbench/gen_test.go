package main

import (
	"bytes"
	"context"
	"testing"

	"pdnsim/internal/bem"
	"pdnsim/internal/core"
)

func TestSameSeedGivesIdenticalInputs(t *testing.T) {
	for _, c := range []boardClass{denseClass, operatorClass, sweepClass} {
		for _, i := range []int{0, c.corpusSize() / 2, c.corpusSize() - 1} {
			a, err := c.corpusBoard(i)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := c.corpusBoard(i)
			if !bytes.Equal(inputBytes(&a), inputBytes(&b)) {
				t.Fatalf("%s board %d differs between two generations", c.name, i)
			}
		}
		if !bytes.Equal(inputBytes(runOrder(7, c.strata, c.perStratum)), inputBytes(runOrder(7, c.strata, c.perStratum))) {
			t.Fatalf("%s: run order differs for the same seed", c.name)
		}
		if bytes.Equal(inputBytes(runOrder(7, c.strata, c.perStratum)), inputBytes(runOrder(8, c.strata, c.perStratum))) {
			t.Fatalf("%s: seeds 7 and 8 give the same run order", c.name)
		}
	}
	w1, j1 := sweepPlan(3, 50)
	w2, j2 := sweepPlan(3, 50)
	if !bytes.Equal(inputBytes([]any{w1, j1}), inputBytes([]any{w2, j2})) {
		t.Fatal("sweep plan differs for the same seed")
	}
	if !bytes.Equal(inputBytes(ssnCorpusScenario(5)), inputBytes(ssnCorpusScenario(5))) {
		t.Fatal("SSN scenario differs between two generations")
	}
	if !bytes.Equal(inputBytes(ssnRunOrder(9)), inputBytes(ssnRunOrder(9))) {
		t.Fatal("SSN run order differs for the same seed")
	}
}

func TestRunOrderVisitsEachInputOnce(t *testing.T) {
	if got, want := inputBytes(strataCycle(8)), inputBytes([]int{0, 4, 2, 6, 1, 5, 3, 7}); !bytes.Equal(got, want) {
		t.Fatalf("strataCycle(8) = %s, want %s", got, want)
	}
	order := runOrder(11, denseClass.strata, denseClass.perStratum)
	cycle := strataCycle(denseClass.strata)
	onCycle := map[int]bool{}
	for _, k := range cycle {
		onCycle[k] = true
	}
	if len(cycle) != denseClass.strata || len(onCycle) != denseClass.strata {
		t.Fatalf("cycle %v does not visit each of %d strata once", cycle, denseClass.strata)
	}
	seen := map[int]bool{}
	for j, i := range order {
		if seen[i] {
			t.Fatalf("input %d visited twice", i)
		}
		seen[i] = true
		if want := cycle[(j/clients)%denseClass.strata]; i/denseClass.perStratum != want {
			t.Fatalf("op %d draws from stratum %d, want %d", j, i/denseClass.perStratum, want)
		}
	}
	if len(seen) != denseClass.corpusSize() {
		t.Fatalf("order covers %d of %d inputs", len(seen), denseClass.corpusSize())
	}
}

func TestExtractBoardsHaveDistinctFingerprints(t *testing.T) {
	seen := map[string]string{}
	for _, c := range []boardClass{denseClass, operatorClass} {
		corp, err := c.corpus()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range corp {
			fp := b.Fingerprint()
			if other, dup := seen[fp]; dup {
				t.Fatalf("%s and %s share fingerprint %s", b.Name, other, fp[:12])
			}
			seen[fp] = b.Name
		}
	}
}

func cells(t *testing.T, b *core.BoardSpec) int {
	t.Helper()
	m, err := meshOf(b)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	return len(m.Cells)
}

func TestDenseBoardsSitBelowOperatorGate(t *testing.T) {
	corp, err := denseClass.corpus()
	if err != nil {
		t.Fatal(err)
	}
	for i := range corp {
		if n := cells(t, &corp[i]); n >= operatorPathMinCells || n < denseClass.minCells {
			t.Fatalf("%s has %d cells, want %d..%d", corp[i].Name, n, denseClass.minCells, operatorPathMinCells-1)
		}
	}
}

func TestOperatorBoardsTakeOperatorPath(t *testing.T) {
	corp, err := operatorClass.corpus()
	if err != nil {
		t.Fatal(err)
	}
	step := 1
	if testing.Short() {
		step = 7
	}
	for i := 0; i < len(corp); i += step {
		b := &corp[i]
		if n := cells(t, b); n < operatorPathMinCells {
			t.Fatalf("%s has %d cells, below the operator gate %d", b.Name, n, operatorPathMinCells)
		}
		m, _ := meshOf(b)
		k, opts, err := kernelOf(b)
		if err != nil {
			t.Fatal(err)
		}
		asm, err := bem.AssembleCtx(context.Background(), m, k, opts)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if asm.POp == nil {
			t.Fatalf("%s: assembly carries no Toeplitz P operator", b.Name)
		}
		for _, it := range asm.Diag.Items() {
			if it.Check == "grid uniformity" {
				t.Fatalf("%s: %s", b.Name, it)
			}
		}
	}
}

func TestExtractStrataShareOneLayout(t *testing.T) {
	for _, c := range []boardClass{denseClass, operatorClass} {
		corp, err := c.corpus()
		if err != nil {
			t.Fatal(err)
		}
		for i := range corp {
			head := i - i%c.perStratum
			a, b := corp[i], corp[head]
			if i != head && a.EpsR == b.EpsR {
				t.Fatalf("%s repeats the εr of %s", a.Name, b.Name)
			}
			a.Name, a.EpsR, b.Name, b.EpsR = "", 0, "", 0
			if !bytes.Equal(inputBytes(&a), inputBytes(&b)) {
				t.Fatalf("%s differs from %s in more than εr", corp[i].Name, corp[head].Name)
			}
		}
	}
}

func TestSweepBoardsStratifyNodeCount(t *testing.T) {
	corp, err := sweepClass.corpus()
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range corp {
		if b.ExtraNodes < sweepClass.minExtra || b.ExtraNodes > sweepClass.maxExtra {
			t.Fatalf("%s keeps %d extra nodes, want %d..%d", b.Name, b.ExtraNodes, sweepClass.minExtra, sweepClass.maxExtra)
		}
		if i > 0 && i%sweepClass.perStratum == 0 && b.ExtraNodes < corp[i-1].ExtraNodes {
			t.Fatalf("stratum of %s does not follow its predecessor's node count", b.Name)
		}
	}
	warm, _ := sweepPlan(4, 0)
	strata := map[int]bool{}
	for _, i := range warm {
		strata[i/sweepClass.perStratum] = true
	}
	if len(warm) != sweepBoards || len(strata) != sweepBoards {
		t.Fatalf("warm boards %v do not cover one board per stratum", warm)
	}
}
