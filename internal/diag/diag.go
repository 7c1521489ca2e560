// Package diag collects structured numerical-trust diagnostics from every
// stage of the simulation pipeline. Each check that a stage runs — matrix
// symmetry, positive definiteness, condition estimates, solve residuals,
// S-parameter passivity/reciprocity, FDTD stability margins — records a
// Diagnostic with the measured value, the limit it was compared against, and
// whether the stage auto-repaired the violation (symmetrisation, eigenvalue
// clipping, iterative refinement) or merely observed it.
//
// The collector implements graceful degradation: below a stage's escalation
// threshold a violation becomes a Warning plus an automatic repair and the
// run continues; above it the stage returns a typed simerr error
// (ErrIllConditioned and friends) and the collector holds the quantitative
// trail explaining why. CLIs render the collector with Render so users see
// *why* a result is trustworthy, degraded, or refused.
package diag

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Severity ranks a diagnostic.
type Severity int

const (
	// Info records a passed check worth showing (e.g. a healthy condition
	// estimate or final residual).
	Info Severity = iota
	// Warning records a violated invariant that was repaired or is within
	// the degradation band: the run continued, the result is usable but
	// degraded.
	Warning
	// Error records a violation past the escalation threshold; the stage
	// also returned a typed error, the diagnostic preserves the numbers.
	Error
)

// String returns the lowercase name of the severity.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// Diagnostic is one quantitative trust observation.
type Diagnostic struct {
	Stage    string   // pipeline stage, e.g. "extract", "fdtd", "sparam"
	Check    string   // what was measured, e.g. "C symmetry", "CFL margin"
	Severity Severity // how bad it is
	Message  string   // human-readable one-liner
	Value    float64  // measured quantity (NaN-free by construction)
	Limit    float64  // threshold it was compared against (0 if n/a)
	Repaired bool     // true when the stage auto-repaired the violation
}

func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s: %s", d.Severity, d.Stage, d.Check)
	if d.Message != "" {
		b.WriteString(": " + d.Message)
	}
	if d.Repaired {
		b.WriteString(" (auto-repaired)")
	}
	return b.String()
}

// Diagnostics is a concurrency-safe collector. The zero value is NOT ready;
// use New. A nil *Diagnostics is a valid no-op sink, so deep pipeline code
// can record unconditionally without nil checks at every call site.
type Diagnostics struct {
	mu    sync.Mutex
	items []Diagnostic
}

// New returns an empty collector.
func New() *Diagnostics { return &Diagnostics{} }

// Add records one diagnostic. Safe for concurrent use; a nil receiver
// discards the record.
func (d *Diagnostics) Add(item Diagnostic) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.items = append(d.items, item)
	d.mu.Unlock()
}

// Infof records an Info-level diagnostic with a formatted message.
func (d *Diagnostics) Infof(stage, check string, value, limit float64, format string, args ...any) {
	d.Add(Diagnostic{Stage: stage, Check: check, Severity: Info, Value: value, Limit: limit,
		Message: fmt.Sprintf(format, args...)})
}

// Warnf records a Warning-level diagnostic; repaired marks whether the stage
// fixed the violation in place.
func (d *Diagnostics) Warnf(stage, check string, value, limit float64, repaired bool, format string, args ...any) {
	d.Add(Diagnostic{Stage: stage, Check: check, Severity: Warning, Value: value, Limit: limit,
		Repaired: repaired, Message: fmt.Sprintf(format, args...)})
}

// Errorf records an Error-level diagnostic. The stage is expected to also
// return a typed simerr error; this call preserves the quantitative detail.
func (d *Diagnostics) Errorf(stage, check string, value, limit float64, format string, args ...any) {
	d.Add(Diagnostic{Stage: stage, Check: check, Severity: Error, Value: value, Limit: limit,
		Message: fmt.Sprintf(format, args...)})
}

// Items returns a copy of all recorded diagnostics in insertion order.
func (d *Diagnostics) Items() []Diagnostic {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Diagnostic(nil), d.items...)
}

// Worst returns the highest severity recorded, and false when empty.
//
//pdnlint:ignore deadapi the trust tests of circuit, diag, extract, fdtd and tline assert on the worst severity of a result's trail
func (d *Diagnostics) Worst() (Severity, bool) {
	if d == nil {
		return Info, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return Info, false
	}
	worst := Info
	for _, it := range d.items {
		if it.Severity > worst {
			worst = it.Severity
		}
	}
	return worst, true
}

// Merge appends every diagnostic from other (no-op for nil receivers or
// sources). Pipeline stages each keep a local collector that the driver
// merges into the run-level one.
func (d *Diagnostics) Merge(other *Diagnostics) {
	if d == nil || other == nil {
		return
	}
	for _, it := range other.Items() {
		d.Add(it)
	}
}

// Render formats the collected diagnostics for terminal output, grouped by
// severity (errors first) with stages in stable order inside each group.
// Info records are included only when verbose is set. Returns "" when there
// is nothing to show.
func (d *Diagnostics) Render(verbose bool) string {
	items := d.Items()
	if !verbose {
		filtered := items[:0]
		for _, it := range items {
			if it.Severity >= Warning {
				filtered = append(filtered, it)
			}
		}
		items = filtered
	}
	if len(items) == 0 {
		return ""
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].Severity > items[j].Severity })
	var b strings.Builder
	b.WriteString("diagnostics:\n")
	for _, it := range items {
		b.WriteString("  " + it.String() + "\n")
	}
	return b.String()
}
