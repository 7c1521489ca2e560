// Package deadapifix exercises the deadapi analyzer. It is loaded under a
// synthetic internal/ import path, and its sibling package user (outside
// internal/) is the only other code that references it.
package deadapifix

// Flagged: nothing references it.
func Unused() {} // want "func Unused is not referenced"

// Flagged: only deadapi_test.go calls it, and tests do not count.
func OnlyTested() int { return 1 } // want "func OnlyTested is not referenced"

// Flagged: an unexported helper nothing calls.
func unusedHelper() {} // want "func unusedHelper is not referenced"

// Flagged: a function's calls to itself do not count.
func countdown(n int) int { // want "func countdown is not referenced"
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// Flagged: exported constants, variables and types are held to the same
// rule.
const UnusedLimit = 2 // want "const UnusedLimit is not referenced"

var UnusedTable = []int{1} // want "var UnusedTable is not referenced"

type UnusedKind struct{} // want "type UnusedKind is not referenced"

// Accepted: used only from another package.
func UsedElsewhere() int { return helper() }

// Accepted: an unexported helper that exported code calls.
func helper() int { return 2 }

// Shape is an interface of the module; Square satisfies it.
type Shape interface{ Area() float64 }

// Square's Area is never called by name, only through Shape.
type Square struct{ S float64 }

// Accepted: satisfies the module's Shape.
func (s Square) Area() float64 { return s.S * s.S }

// Level is printed by fmt, which calls String through fmt.Stringer.
type Level int

// Accepted: satisfies fmt.Stringer.
func (l Level) String() string { return "level" }

// Base's method is reached through Derived.
type Base struct{}

// Accepted: promoted through embedding and called on Derived.
func (Base) Hello() string { return "hello" }

// Derived embeds Base.
type Derived struct{ Base }

// Accepted: a generic function another package instantiates.
func Max[T int | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Accepted: a documented waiver.
//
//pdnlint:ignore deadapi fixture demonstrates a documented contract kept without callers
const Contract = 1e-12

// Flagged: a waiver without a reason suppresses nothing.
const Undocumented = 3 //pdnlint:ignore deadapi // want "const Undocumented is not referenced" "undocumented ignore"
