// Package sram provides transistor-level netlists and electrical parameters
// for the SRAM structures of the cache model: the 6T storage cell, sense
// amplifier, bitline precharge, and column multiplexer.
//
// The 6T cell is the dominant leakage source of a cache ("a large number of
// potentially high-leakage cross-coupled inverters", as the paper's
// introduction puts it), so its DC leakage states are modelled explicitly:
// in a stored state exactly three transistors conduct subthreshold current
// across the full supply, and the two conducting devices tunnel through
// their gate oxide.
package sram

import (
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/units"
)

// CellParams describes a 6T cell design at the reference (thin-oxide)
// geometry. All widths and dimensions scale with Tox via the technology's
// ScaleFactor, as required by the paper's stability argument: the drawn
// lengths grow with Tox, and the widths must follow to preserve the cell's
// static noise margin, so the cell grows in both directions.
type CellParams struct {
	WPullDown float64 // NMOS pull-down width
	WPass     float64 // NMOS access (pass-gate) width
	WPullUp   float64 // PMOS pull-up width

	WidthM  float64 // cell footprint width (wordline direction)
	HeightM float64 // cell footprint height (bitline direction)
}

// DefaultCell returns a 65 nm-class 6T cell: ~0.6 um^2 with the usual
// PD > PG >= PU sizing for read stability.
func DefaultCell() CellParams {
	return CellParams{
		WPullDown: 120 * units.Nanometre,
		WPass:     80 * units.Nanometre,
		WPullUp:   80 * units.Nanometre,
		WidthM:    1.2 * units.Micrometre,
		HeightM:   0.5 * units.Micrometre,
	}
}

// Netlist returns the leakage netlist of one cell holding a stable value
// with both bitlines precharged high (the standby state of an idle row),
// its supply at supplyFrac of Vdd: 1 for an awake cell, DrowsyRetentionFrac
// for a drowsy one.
//
// Label the internal nodes L (storing 0) and R (storing 1):
//   - pass transistor at L: off, Vds = supply (bitline high, node low) — leaks.
//   - pass transistor at R: off, Vds = 0 — no subthreshold path.
//   - pull-down at R's inverter (gate at L=0): off, Vds = supply — leaks.
//   - pull-up at L's inverter (gate at R=1): off, Vsd = supply — leaks.
//   - pull-down at L's inverter: ON (gate at R=1) — full-area gate tunnelling.
//   - pull-up at R's inverter: ON (gate at L=0) — full-area gate tunnelling.
//
// A drowsy cell's supply collapses to the retention voltage, so every off
// transistor sees only that much drain bias (killing both the DIBL boost
// and most of the drain-field leakage) and the conducting transistors
// tunnel at the reduced oxide voltage. This implements the dynamic
// counterpart of the paper's static knobs, from its related work [6]; see
// the drowsy extension experiment.
func (c CellParams) Netlist(supplyFrac float64) *circuit.Netlist {
	v := supplyFrac // drain bias of the leaking off devices, oxide voltage of the on ones
	n := &circuit.Netlist{Name: "cell6t"}
	n.AddElement(circuit.Element{Name: "pg.l.off", Kind: device.NMOS, WidthM: c.WPass, State: circuit.StateOff, VFrac: v})
	n.AddElement(circuit.Element{Name: "pg.r.off", Kind: device.NMOS, WidthM: c.WPass, State: circuit.StateOff, VFrac: 0})
	n.AddElement(circuit.Element{Name: "pd.r.off", Kind: device.NMOS, WidthM: c.WPullDown, State: circuit.StateOff, VFrac: v})
	n.AddElement(circuit.Element{Name: "pu.l.off", Kind: device.PMOS, WidthM: c.WPullUp, State: circuit.StateOff, VFrac: v})
	n.AddElement(circuit.Element{Name: "pd.l.on", Kind: device.NMOS, WidthM: c.WPullDown, State: circuit.StateOn, VFrac: v})
	n.AddElement(circuit.Element{Name: "pu.r.on", Kind: device.PMOS, WidthM: c.WPullUp, State: circuit.StateOn, VFrac: v})
	return n
}

// ReadCurrent returns the effective bitline discharge current of the cell
// during a read: the series pass-gate/pull-down path, approximated as 80% of
// the weaker device's saturation current. The pass gate's overdrive is
// derated by the storage-node voltage (device.CellReadDerate), so cell read
// speed falls off with Vth much faster than peripheral logic — the reason a
// single shared Vth cannot serve both the array and the periphery.
func (c CellParams) ReadCurrent(t *device.Technology, op device.OperatingPoint) float64 {
	ipass := t.OnCurrentDerated(device.NMOS, c.WPass, op, device.CellReadDerate)
	ipd := t.OnCurrent(device.NMOS, c.WPullDown, op)
	weaker := ipass
	if ipd < weaker {
		weaker = ipd
	}
	return 0.8 * weaker
}

// Dims returns the scaled cell footprint (width, height) at the operating
// point. Both dimensions grow linearly with Tox.
func (c CellParams) Dims(t *device.Technology, op device.OperatingPoint) (w, h float64) {
	s := t.ScaleFactor(op)
	return c.WidthM * s, c.HeightM * s
}

// BitlineCapPerCell returns the capacitance one cell adds to its bitline:
// the pass-gate junction plus the wire capacitance of one cell height.
func (c CellParams) BitlineCapPerCell(t *device.Technology, op device.OperatingPoint) float64 {
	_, h := c.Dims(t, op)
	return t.JunctionCap(c.WPass, op) + t.WireCPerM*h
}

// WordlineCapPerCell returns the capacitance one cell adds to its wordline:
// two pass-gate gates plus the wire capacitance of one cell width.
func (c CellParams) WordlineCapPerCell(t *device.Technology, op device.OperatingPoint) float64 {
	w, _ := c.Dims(t, op)
	return 2*t.GateCap(c.WPass, op) + t.WireCPerM*w
}

// DrowsyRetentionFrac is the retention supply of a drowsy cell as a
// fraction of Vdd (Flautner et al., ISCA'02 use ~0.3).
const DrowsyRetentionFrac = 0.3

// SenseAmp returns the leakage netlist of one latch-type sense amplifier in
// its idle (disabled, inputs equalized high) state: the latch NMOS pair sits
// above an off enable transistor (two-deep stack), the latch PMOS pair
// conducts (gate tunnelling), and the equalization PMOS is on.
func SenseAmp(t *device.Technology) *circuit.Netlist {
	w := 4 * t.WMin // sense amps use wider devices for offset control
	n := &circuit.Netlist{Name: "senseamp"}
	n.AddElement(circuit.Element{Name: "latch.n.off", Kind: device.NMOS, WidthM: w, State: circuit.StateOff, VFrac: 1, Stack: 2, Count: 2})
	n.AddElement(circuit.Element{Name: "en.off", Kind: device.NMOS, WidthM: 2 * w, State: circuit.StateOff, VFrac: 1, Stack: 2})
	n.AddElement(circuit.Element{Name: "latch.p.on", Kind: device.PMOS, WidthM: w, State: circuit.StateOn, VFrac: 1, Count: 2})
	n.AddElement(circuit.Element{Name: "eq.p.on", Kind: device.PMOS, WidthM: w, State: circuit.StateOn, VFrac: 1})
	return n
}

// SenseDelay returns the sense amplifier resolution time: the time for the
// latch to regenerate a BitlineSwing differential, approximated as a few
// gate delays of its own devices.
func SenseDelay(t *device.Technology, op device.OperatingPoint) float64 {
	// Latch regeneration ~ 3 time constants of a 4x inverter loaded by its twin.
	w := 4 * t.WMin
	r := t.DriveResistance(device.NMOS, w, op)
	cl := t.GateCap(w*(1+circuit.BetaP), op) + t.JunctionCap(w*(1+circuit.BetaP), op)
	return 3 * r * cl
}

// Precharge returns the leakage netlist of one column's precharge/equalize
// trio. The PMOS devices are on while the array idles (bitlines held high),
// so they contribute gate tunnelling.
func Precharge(t *device.Technology) *circuit.Netlist {
	w := 2 * t.WMin
	n := &circuit.Netlist{Name: "precharge"}
	n.AddElement(circuit.Element{Name: "pre.on", Kind: device.PMOS, WidthM: w, State: circuit.StateOn, VFrac: 1, Count: 2})
	n.AddElement(circuit.Element{Name: "eq.on", Kind: device.PMOS, WidthM: w, State: circuit.StateOn, VFrac: 1})
	return n
}

// ColumnMux returns the leakage netlist of one column-multiplexer pass
// transistor. With both bitlines precharged high the pass device sees no
// drain-source drop, so it contributes (almost) nothing; it is kept in the
// netlist for completeness of the transistor inventory.
func ColumnMux(t *device.Technology) *circuit.Netlist {
	w := 4 * t.WMin
	n := &circuit.Netlist{Name: "colmux"}
	n.AddElement(circuit.Element{Name: "mux.off", Kind: device.NMOS, WidthM: w, State: circuit.StateOff, VFrac: 0})
	return n
}

// BitlineSwing is the differential (as a fraction of Vdd) a bitline must
// develop before the sense amplifier can resolve it.
const BitlineSwing = 0.1
