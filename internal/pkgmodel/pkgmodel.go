// Package pkgmodel provides the chip-package subsystem of the paper's §5.2:
// per-pin parasitic R-L-C subcircuits connecting die rails and signals to
// the board, plus closed-form estimators for bondwire and lead inductances.
package pkgmodel

import (
	"pdnsim/internal/circuit"

	"pdnsim/internal/simerr"
)

// Pin holds the lumped parasitics of one package pin: series resistance and
// inductance from the board pad to the die pad, with a shunt capacitance at
// the die side.
type Pin struct {
	R float64 // series resistance (Ω)
	L float64 // series inductance (H)
	C float64 // die-side shunt capacitance to ground (F)
}

// Validate checks the pin parameters.
func (p Pin) Validate() error {
	if p.R < 0 || p.L < 0 || p.C < 0 {
		return simerr.Tagf(simerr.ErrBadInput, "pkgmodel: negative pin parasitics %+v", p)
	}
	if p.R == 0 && p.L == 0 {
		return simerr.Tagf(simerr.ErrBadInput, "pkgmodel: pin needs series R or L")
	}
	return nil
}

// Attach wires the pin between the board node and the die node. A small
// series resistance is always present (the solver needs no ideal L-only
// loops); the shunt capacitance lands on the die side.
func (p Pin) Attach(c *circuit.Circuit, name string, board, die int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	r := p.R
	if r <= 0 {
		r = 1e-4
	}
	mid := c.Node(name + "_m")
	if _, err := c.AddResistor(name+"_r", board, mid, r); err != nil {
		return err
	}
	if _, err := c.AddInductor(name+"_l", mid, die, p.L); err != nil {
		return err
	}
	if p.C > 0 {
		if _, err := c.AddCapacitor(name+"_c", die, circuit.Ground, p.C); err != nil {
			return err
		}
	}
	return nil
}

// Preset package pin classes (typical mid-1990s values, as in the paper's
// application space).
var (
	// QFPPin is a quad-flat-pack lead: long lead frame, high inductance.
	QFPPin = Pin{R: 50e-3, L: 7e-9, C: 0.8e-12}
	// BGAPin is a ball-grid-array ball + short trace.
	BGAPin = Pin{R: 20e-3, L: 1.5e-9, C: 0.4e-12}
	// WirebondPin is a die bondwire only (chip-on-board).
	WirebondPin = Pin{R: 80e-3, L: 3e-9, C: 0.1e-12}
)

// RailPair attaches a Vdd pin and a Gnd pin for one chip: boardVdd → dieVdd
// and boardGnd → dieGnd, each through its own pin parasitics. Returns the
// die-side rail nodes it created.
func RailPair(c *circuit.Circuit, name string, boardVdd, boardGnd int, pin Pin) (dieVdd, dieGnd int, err error) {
	dieVdd = c.Node(name + "_dvdd")
	dieGnd = c.Node(name + "_dgnd")
	if err := pin.Attach(c, name+"_pvdd", boardVdd, dieVdd); err != nil {
		return 0, 0, err
	}
	if err := pin.Attach(c, name+"_pgnd", boardGnd, dieGnd); err != nil {
		return 0, 0, err
	}
	return dieVdd, dieGnd, nil
}
