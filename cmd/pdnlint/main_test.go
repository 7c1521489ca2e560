package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pdnsim/cmd/pdnlint/lint"
)

// Flag handling is tested without loading the module wherever possible:
// the usage-error paths return before the loader runs, so they are cheap;
// the full -sarif drive over a real package is gated behind -short.

func TestRunRejectsUnknownFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "flag provided but not defined") {
		t.Fatalf("stderr should carry the flag error, got %q", errb.String())
	}
}

func TestRunRejectsJSONPlusSARIF(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "-sarif"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "mutually exclusive") {
		t.Fatalf("stderr = %q, want the mutual-exclusion message", errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("usage errors must not write to stdout, got %q", out.String())
	}
}

func TestSelectPackages(t *testing.T) {
	pkgs := []*lint.Package{
		{Path: "pdnsim/internal/mat", Dir: "../../internal/mat"},
		{Path: "pdnsim/internal/serve", Dir: "../../internal/serve"},
		{Path: "pdnsim/cmd/pdnlint", Dir: "."},
	}
	if sel := selectPackages(pkgs, nil, ""); sel != nil {
		t.Fatalf("no args must keep everything (nil), got %v", sel)
	}
	if sel := selectPackages(pkgs, []string{"./..."}, ""); sel != nil {
		t.Fatalf("./... must keep everything (nil), got %v", sel)
	}
	sel := selectPackages(pkgs, []string{"../../internal/mat"}, "")
	if len(sel) != 1 || sel[0].Path != "pdnsim/internal/mat" {
		t.Fatalf("plain dir selection failed: %v", sel)
	}
	sel = selectPackages(pkgs, []string{"../../internal/..."}, "")
	if len(sel) != 2 {
		t.Fatalf("subtree selection should keep the two internal packages, got %v", sel)
	}
	if sel := selectPackages(pkgs, []string{"../../does-not-exist"}, ""); len(sel) != 0 {
		t.Fatalf("unmatched selection should keep nothing, got %v", sel)
	}
}

func TestRunSARIFOverOnePackage(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks packages")
	}
	// The lint package directory itself is a cheap, always-clean target;
	// the run must exit 0 and emit a decodable SARIF log.
	var out, errb bytes.Buffer
	code := run([]string{"-sarif", "./lint"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	var log lint.SARIFLog
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("stdout is not SARIF: %v\n%s", err, out.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF shape: version=%q runs=%d", log.Version, len(log.Runs))
	}
	if len(log.Runs[0].Tool.Driver.Rules) != len(lint.Analyzers)+1 {
		t.Fatalf("rule table has %d entries, want %d", len(log.Runs[0].Tool.Driver.Rules), len(lint.Analyzers)+1)
	}
}

func TestRunOnSubsetCountsUsesFromWholeModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	// geom's exported API is used only by other packages (mesh, bem, the
	// facade); analysing geom alone must still see those uses.
	var out, errb bytes.Buffer
	if code := run([]string{"../../internal/geom/..."}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
}
