// Package ignorefix exercises the //pdnlint:ignore escape hatch and its
// hygiene rules: a documented ignore suppresses exactly its analyzer on its
// line (or whole function, from a doc comment); an undocumented or
// misspelled ignore is itself a finding and suppresses nothing.
package ignorefix

import "math"

// tinyFloor documents the accepted pattern for completeness.
const tinyFloor = 1e-300

// The cases are referenced so that only the directives under test report.
var _ = []any{sameLine, lineAbove, wholeFunc, wrongAnalyzer, noReason}

// Accepted: same-line documented ignore.
func sameLine(v float64) bool {
	return v < 1e-9 //pdnlint:ignore magictol fixture demonstrates a documented same-line waiver
}

// Accepted: the directive on the line above covers the next line.
func lineAbove(v float64) bool {
	//pdnlint:ignore magictol fixture demonstrates a documented previous-line waiver
	return v < 1e-9
}

// Accepted: a directive in the doc comment covers the whole function.
//
//pdnlint:ignore magictol fixture demonstrates a function-scoped waiver
func wholeFunc(v, w float64) bool {
	a := v < 1e-9
	b := w > 1e-12
	return a && b
}

// Flagged twice: the ignore names the wrong analyzer, so the magictol
// finding still fires and the directive itself is reported as unknown.
func wrongAnalyzer(v float64) bool {
	return math.Abs(v) < 1e-9 //pdnlint:ignore floatqe typo in analyzer name // want "tolerance literal 1e-9" "ignore directive names unknown analyzer"
}

// Flagged twice: an undocumented ignore suppresses nothing.
func noReason(v float64) bool {
	return v < 1e-9 //pdnlint:ignore magictol // want "tolerance literal 1e-9" "undocumented ignore"
}
