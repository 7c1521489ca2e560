// Package user references the deadapi fixture from outside internal/.
package user

import (
	"fmt"

	"pdnsim/internal/deadapifix"
)

// Use reaches every accepted identifier of the fixture.
func Use() {
	var sh deadapifix.Shape = deadapifix.Square{S: 2}
	fmt.Println(sh.Area(), deadapifix.Level(1), deadapifix.Derived{}.Hello())
	fmt.Println(deadapifix.UsedElsewhere(), deadapifix.Max(1, 2), deadapifix.Max(1.5, 2))
}
