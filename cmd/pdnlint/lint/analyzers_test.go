package lint

import (
	"encoding/json"
	"strings"
	"testing"
)

// Each analyzer runs over its fixture package under testdata/src; the
// fixtures hold both flagged (want-annotated) and accepted cases, so these
// tests pin down false negatives and false positives at once.

func TestErrwrap(t *testing.T) {
	// The synthetic internal/ import path is what arms the analyzer.
	RunFixture(t, Errwrap, "errwrap", "pdnsim/internal/errwrapfix")
}

func TestErrwrapOutsideInternal(t *testing.T) {
	// The same source outside internal/ must produce no findings: cmd/,
	// examples/ and the facade are out of scope.
	l := sharedLoader(t)
	pkg, err := l.LoadDir("testdata/src/errwrap", "pdnsim/errwrapfix")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if fs := Run([]*Package{pkg}, []*Analyzer{Errwrap}, ""); len(fs) != 0 {
		t.Fatalf("errwrap must not fire outside internal/, got %v", fs)
	}
}

func TestCtxflow(t *testing.T) {
	RunFixture(t, Ctxflow, "ctxflow", "pdnsim/internal/ctxflowfix")
}

func TestFloateq(t *testing.T) {
	RunFixture(t, Floateq, "floateq", "pdnsim/internal/floateqfix")
}

func TestMagictol(t *testing.T) {
	RunFixture(t, Magictol, "magictol", "pdnsim/internal/magictolfix")
}

func TestParaloop(t *testing.T) {
	RunFixture(t, Paraloop, "paraloop", "pdnsim/internal/paraloopfix")
}

func TestLockhold(t *testing.T) {
	RunFixture(t, Lockhold, "lockhold", "pdnsim/internal/lockholdfix")
}

func TestLockholdIgnoreWithReason(t *testing.T) {
	// The doc-comment waiver covers the whole function (the single-writer
	// WAL shape); the undocumented twin still reports both sites.
	RunFixture(t, Lockhold, "ignorehold", "pdnsim/internal/ignoreholdfix")
}

func TestGoleak(t *testing.T) {
	// The synthetic internal/serve/... import path arms the strict
	// daemon-package accounting rule.
	RunFixture(t, Goleak, "goleak", "pdnsim/internal/serve/goleakfix")
}

func TestGoleakRelaxedOutsideDaemon(t *testing.T) {
	// The same source outside the daemon packages keeps only the
	// universal exit-path findings; the accounting findings disappear.
	l := sharedLoader(t)
	pkg, err := l.LoadDir("testdata/src/goleak", "pdnsim/internal/goleakfix")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	fs := Run([]*Package{pkg}, []*Analyzer{Goleak}, "")
	if len(fs) != 2 {
		t.Fatalf("want exactly the 2 exit-path findings outside daemon packages, got %v", fs)
	}
	for _, f := range fs {
		if !strings.Contains(f.Message, "no exit path") {
			t.Fatalf("accounting finding leaked outside daemon packages: %v", f)
		}
	}
}

func TestDurable(t *testing.T) {
	RunFixture(t, Durable, "durable", "pdnsim/internal/durablefix")
}

func TestDurableSeamRenames(t *testing.T) {
	RunFixture(t, Durable, "durablefs", "pdnsim/internal/durablefsfix")
}

func TestDurableExemptsCheckpointPackage(t *testing.T) {
	// The envelope implementation is the one place raw durable I/O
	// belongs; under its import path the same fixture is silent. A fresh
	// loader, not the shared one: the shared loader caches packages by
	// import path, and poisoning its cache with a fixture registered as
	// the real pdnsim/internal/checkpoint would break every later
	// whole-module load in this test binary.
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := l.LoadDir("testdata/src/durable", "pdnsim/internal/checkpoint")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if fs := Run([]*Package{pkg}, []*Analyzer{Durable}, ""); len(fs) != 0 {
		t.Fatalf("durable must not fire inside internal/checkpoint, got %v", fs)
	}
}

func TestHotalloc(t *testing.T) {
	RunFixture(t, Hotalloc, "hotalloc", "pdnsim/internal/hotallocfix")
}

func TestDeadapi(t *testing.T) {
	// The fixture's user package sits outside internal/ and imports the
	// fixture under its synthetic path, so the fixture is loaded first;
	// the user's references count because the loader holds it.
	l := sharedLoader(t)
	if _, err := l.LoadDir("testdata/src/deadapi", "pdnsim/internal/deadapifix"); err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	if _, err := l.LoadDir("testdata/src/deadapi/user", "pdnsim/deadapiuser"); err != nil {
		t.Fatalf("load user: %v", err)
	}
	RunFixture(t, Deadapi, "deadapi", "pdnsim/internal/deadapifix")
}

func TestAnalyzerRosterHasNine(t *testing.T) {
	// The acceptance gate on the roster itself: the nine per-package
	// analyzers plus the module-wide deadapi, with distinct names, so every
	// consumer deriving its set from lint.Analyzers (CLI, Makefile lint,
	// SARIF rules) sees all of them.
	if len(Analyzers) != 10 {
		t.Fatalf("lint.Analyzers has %d entries, want 10", len(Analyzers))
	}
	seen := map[string]bool{}
	for _, a := range Analyzers {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %+v incompletely registered", a)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, name := range []string{"lockhold", "goleak", "durable", "hotalloc", "deadapi"} {
		if !seen[name] {
			t.Fatalf("roster is missing %q", name)
		}
	}
}

func TestIgnoreDirectives(t *testing.T) {
	// The ignore fixture runs under the full roster so suppression and
	// directive hygiene interact exactly as in the real driver.
	l := sharedLoader(t)
	pkg, err := l.LoadDir("testdata/src/ignore", "pdnsim/internal/ignorefix")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	findings := Run([]*Package{pkg}, Analyzers, "")
	// Reuse the want-matching by delegating to RunFixture for the single
	// magictol analyzer is not enough here (hygiene findings come from the
	// engine), so check the shape directly: exactly 2 suppressed sites stay
	// silent, 2 sites double-report.
	var magictol, hygiene int
	for _, f := range findings {
		switch f.Analyzer {
		case "magictol":
			magictol++
		case "pdnlint":
			hygiene++
		default:
			t.Errorf("unexpected analyzer in ignore fixture: %v", f)
		}
	}
	if magictol != 2 || hygiene != 2 {
		t.Fatalf("want 2 magictol + 2 hygiene findings, got %d + %d: %v", magictol, hygiene, findings)
	}
}

func TestWholeModuleIsClean(t *testing.T) {
	// The acceptance gate in executable form: pdnlint over the entire
	// repository reports zero findings. Every contract violation either got
	// fixed in the findings sweep or carries a documented ignore.
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	// A fresh loader, not the shared one: deadapi counts uses from every
	// loaded package, and the fixtures the shared loader holds reference
	// module code the module itself may not.
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("module walk found only %d packages; loader is skipping code", len(pkgs))
	}
	for _, f := range Run(pkgs, Analyzers, l.ModuleRoot) {
		t.Errorf("finding: %s", f)
	}
}

// TestFindingJSONShape locks the -json output contract: findings marshal
// with stable lowercase keys so downstream tooling can track the count and
// location of findings across commits.
func TestFindingJSONShape(t *testing.T) {
	l := sharedLoader(t)
	pkg, err := l.LoadDir("testdata/src/floateq", "pdnsim/internal/floateqfix")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run([]*Package{pkg}, []*Analyzer{Floateq}, "")
	if len(findings) == 0 {
		t.Fatal("floateq fixture must produce findings for the JSON shape test")
	}
	raw, err := json.Marshal(findings)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"file", "line", "col", "analyzer", "message"} {
		if _, ok := decoded[0][k]; !ok {
			t.Fatalf("finding JSON missing key %q: %s", k, raw)
		}
	}
	if decoded[0]["analyzer"] != "floateq" {
		t.Fatalf("analyzer key must carry the analyzer name, got %v", decoded[0]["analyzer"])
	}
}

// TestSARIFRoundTrip locks the -sarif output contract: a SARIF 2.1.0 log
// whose encoding survives json.Unmarshal with version, schema, the full
// rule table, and per-finding rule/location intact.
func TestSARIFRoundTrip(t *testing.T) {
	l := sharedLoader(t)
	pkg, err := l.LoadDir("testdata/src/floateq", "pdnsim/internal/floateqfix")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run([]*Package{pkg}, []*Analyzer{Floateq}, "")
	if len(findings) == 0 {
		t.Fatal("floateq fixture must produce findings for the SARIF test")
	}
	raw, err := json.Marshal(SARIFReport(findings, Analyzers))
	if err != nil {
		t.Fatal(err)
	}

	var log SARIFLog
	if err := json.Unmarshal(raw, &log); err != nil {
		t.Fatalf("SARIF does not round-trip: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Fatalf("version = %q, want 2.1.0", log.Version)
	}
	if !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Fatalf("schema = %q, want a sarif-2.1.0 schema URI", log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("want exactly one run, got %d", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "pdnlint" {
		t.Fatalf("driver name = %q", run.Tool.Driver.Name)
	}
	if want := len(Analyzers) + 1; len(run.Tool.Driver.Rules) != want {
		t.Fatalf("rule table has %d entries, want %d (roster + hygiene)", len(run.Tool.Driver.Rules), want)
	}
	if len(run.Results) != len(findings) {
		t.Fatalf("results = %d, findings = %d", len(run.Results), len(findings))
	}
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for i, r := range run.Results {
		if !ruleIDs[r.RuleID] {
			t.Fatalf("result %d ruleId %q missing from the rule table", i, r.RuleID)
		}
		if r.Level != "error" || r.Message.Text == "" {
			t.Fatalf("result %d incomplete: %+v", i, r)
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI == "" || loc.Region.StartLine <= 0 {
			t.Fatalf("result %d location incomplete: %+v", i, loc)
		}
		if strings.Contains(loc.ArtifactLocation.URI, "\\") {
			t.Fatalf("artifact URI must be slash-separated, got %q", loc.ArtifactLocation.URI)
		}
	}

	// Empty findings still produce a valid array-carrying run.
	raw, err = json.Marshal(SARIFReport(nil, Analyzers))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"results":null`) {
		t.Fatalf("empty report must carry an empty results array, got %s", raw)
	}
}
