// Package components implements the four cache components of the paper's
// Section 3 decomposition — the memory cell array (with sense amplifiers),
// the row decoder, the address bus drivers, and the data bus drivers — and
// their composition into a whole cache.
//
// Each component exposes total leakage power, delay, and dynamic energy per
// access as functions of its own (Vth, Tox) operating point; following the
// paper, components are treated as electrically independent, the cache's
// leakage is the sum of component leakages and the access time is the sum
// of component delays (they sit in series on the access path).
//
// Driver chains (the wordline drivers and both bus-driver banks) are
// circuit.Chain values whose stage counts are frozen at a design corner —
// the fastest legal operating point — as a real netlist's would be.
// Evaluating a component at a different (Vth, Tox) changes device
// currents, capacitances and wire lengths, and the chain widths follow
// those capacitances, but the stage counts stay. The address and data bus
// drivers are two banks of one model, busDrivers.
package components

import (
	"fmt"

	"repro/internal/cachecfg"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/sram"
)

// PartID identifies one of the four cache components.
type PartID int

const (
	// PartCellArray is the memory cell array including sense amplifiers and
	// precharge (the paper's "memory cell array and sense amplifier").
	PartCellArray PartID = iota
	// PartDecoder is the row/predecode logic.
	PartDecoder
	// PartAddrDrivers is the address bus driver component.
	PartAddrDrivers
	// PartDataDrivers is the data bus driver component.
	PartDataDrivers
	// PartCount is the number of components.
	PartCount
)

var partNames = [PartCount]string{"cell-array", "decoder", "addr-drivers", "data-drivers"}

// String returns the component's conventional name.
func (p PartID) String() string {
	if p < 0 || p >= PartCount {
		return fmt.Sprintf("part(%d)", int(p))
	}
	return partNames[p]
}

// Parts lists the four component IDs in order.
func Parts() [PartCount]PartID {
	return [PartCount]PartID{PartCellArray, PartDecoder, PartAddrDrivers, PartDataDrivers}
}

// Assignment maps each component to an operating point — the decision
// variable of the paper's optimization problems.
type Assignment [PartCount]device.OperatingPoint

// Uniform returns a Scheme-III assignment: the same pair everywhere.
func Uniform(op device.OperatingPoint) Assignment {
	var a Assignment
	for i := range a {
		a[i] = op
	}
	return a
}

// Split returns a Scheme-II assignment: one pair for the cell array and
// another for the three peripheral components.
func Split(cell, periph device.OperatingPoint) Assignment {
	var a Assignment
	a[PartCellArray] = cell
	for _, p := range []PartID{PartDecoder, PartAddrDrivers, PartDataDrivers} {
		a[p] = periph
	}
	return a
}

// String formats an assignment component by component.
func (a Assignment) String() string {
	s := ""
	for i, op := range a {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%v=%v", PartID(i), op)
	}
	return s
}

// Component is one of the four cache components.
type Component interface {
	// ID returns the component's identity.
	ID() PartID
	// Leakage returns the component's total standby leakage at op.
	Leakage(op device.OperatingPoint) circuit.Leakage
	// Delay returns the component's contribution to the access time at op.
	Delay(op device.OperatingPoint) float64
	// DynamicEnergy returns the switching energy per access at op.
	DynamicEnergy(op device.OperatingPoint) float64
}

// Params tunes the cache-level electrical environment.
type Params struct {
	// ExternalBusM is the routing distance (m) between the cache macro and
	// its client (CPU core for an L1, L1 for an L2), travelled by both the
	// address and the data buses.
	ExternalBusM float64
	// ExternalLoadF is the far-end load (F) each data bit drives.
	ExternalLoadF float64
	// ActivityFactor is the switching probability per bus wire per access.
	ActivityFactor float64
	// DesignPoint is the corner at which driver chains are sized.
	DesignPoint device.OperatingPoint
}

// DefaultParams returns conventional parameters for a cache of the given
// capacity: small (L1-class) macros sit close to the core; large (L2-class)
// macros pay longer global routing.
func DefaultParams(t *device.Technology, cfg cachecfg.Config) Params {
	bus := 1.5e-3 // 1.5 mm
	if cfg.SizeBytes > 128*cachecfg.KB {
		bus = 3.0e-3
	}
	return Params{
		ExternalBusM:   bus,
		ExternalLoadF:  50e-15,
		ActivityFactor: 0.5,
		DesignPoint:    device.OperatingPoint{Vth: t.VthMin, ToxM: t.ToxMin},
	}
}

// Cache is the assembled four-component cache.
type Cache struct {
	Tech   *device.Technology
	Cfg    cachecfg.Config
	Array  geom.Array
	Params Params

	parts [PartCount]Component
}

// New assembles a cache from a configuration using default parameters.
func New(t *device.Technology, cfg cachecfg.Config) (*Cache, error) {
	return NewWithParams(t, cfg, DefaultParams(t, cfg))
}

// NewWithParams assembles a cache with explicit electrical parameters.
func NewWithParams(t *device.Technology, cfg cachecfg.Config, p Params) (*Cache, error) {
	arr, err := geom.Organize(cfg, sram.DefaultCell())
	if err != nil {
		return nil, err
	}
	c := &Cache{Tech: t, Cfg: cfg, Array: arr, Params: p}
	c.parts[PartCellArray] = newCellArray(t, arr, p)
	c.parts[PartDecoder] = newDecoder(t, arr, p)
	c.parts[PartAddrDrivers] = newBusDrivers(t, arr, p, PartAddrDrivers)
	c.parts[PartDataDrivers] = newBusDrivers(t, arr, p, PartDataDrivers)
	return c, nil
}

// Part returns one component.
func (c *Cache) Part(id PartID) Component { return c.parts[id] }

// Leakage returns the cache's total leakage under the assignment: the sum
// over components (the paper's additive model).
func (c *Cache) Leakage(a Assignment) circuit.Leakage {
	var total circuit.Leakage
	for i, part := range c.parts {
		total.Add(part.Leakage(a[i]), 1)
	}
	return total
}

// AccessTime returns the cache access (hit) time under the assignment: the
// sum of component delays, per the paper's independence assumption. The
// four components are in series on the access path (address in, decode,
// array, data out), so the sum is also the critical path.
func (c *Cache) AccessTime(a Assignment) float64 {
	var total float64
	for i, part := range c.parts {
		total += part.Delay(a[i])
	}
	return total
}

// DynamicEnergy returns the switching energy of one access.
func (c *Cache) DynamicEnergy(a Assignment) float64 {
	var total float64
	for i, part := range c.parts {
		total += part.DynamicEnergy(a[i])
	}
	return total
}

// AreaM2 returns the macro area under the cell array's operating point
// (the array dominates; periphery is folded in as overhead).
func (c *Cache) AreaM2(a Assignment) float64 {
	return c.Array.AreaM2(c.Tech, a[PartCellArray])
}

// --- Memory cell array (+ sense amps, precharge) ---------------------------

type cellArray struct {
	t   *device.Technology
	arr geom.Array
	p   Params

	cell sram.CellParams
	wl   circuit.Chain // wordline driver chain, depth frozen at the design point
}

func newCellArray(t *device.Technology, arr geom.Array, p Params) *cellArray {
	ca := &cellArray{t: t, arr: arr, p: p, cell: arr.Cell}
	dp := p.DesignPoint
	ca.wl = circuit.OptimalChain(t, dp, ca.handoffCap(dp), ca.wordlineCap(dp))
	return ca
}

func (ca *cellArray) ID() PartID { return PartCellArray }

// handoffCap is the input capacitance a component presents to its driver.
func (ca *cellArray) handoffCap(op device.OperatingPoint) float64 {
	return ca.t.GateCap(4*ca.t.WMin*(1+circuit.BetaP), op)
}

func (ca *cellArray) wordlineCap(op device.OperatingPoint) float64 {
	perCell := ca.cell.WordlineCapPerCell(ca.t, op)
	return perCell * float64(ca.arr.Cols)
}

func (ca *cellArray) bitlineCap(op device.OperatingPoint) float64 {
	perCell := ca.cell.BitlineCapPerCell(ca.t, op)
	c := perCell * float64(ca.arr.Rows)
	// Column mux junction and sense amp input at the bottom of the line.
	c += ca.t.JunctionCap(4*ca.t.WMin, op) + ca.t.GateCap(4*ca.t.WMin, op)
	return c
}

func (ca *cellArray) Leakage(op device.OperatingPoint) circuit.Leakage {
	return ca.leakage(op, 1)
}

// leakage evaluates the array's netlist with awakeFraction of the cells at
// full supply and the rest in the drowsy retention state; sense amps,
// precharge, column muxes and wordline drivers stay fully on.
func (ca *cellArray) leakage(op device.OperatingPoint, awakeFraction float64) circuit.Leakage {
	nl := &circuit.Netlist{Name: "cell-array"}
	cells := float64(ca.arr.TotalCells())
	nl.AddChild(ca.cell.Netlist(1), cells*awakeFraction)
	nl.AddChild(ca.cell.Netlist(sram.DrowsyRetentionFrac), cells*(1-awakeFraction))
	nl.AddChild(sram.SenseAmp(ca.t), float64(ca.arr.SenseAmps()))
	nl.AddChild(sram.Precharge(ca.t), float64(ca.arr.Cols*ca.arr.NSub))
	nl.AddChild(sram.ColumnMux(ca.t), float64(ca.arr.Cols*ca.arr.NSub))
	// Wordline drivers: one chain per row per subarray, output low (deselected).
	wlDriverW := ca.wl.WidthM(ca.t, op, ca.handoffCap(op), ca.wordlineCap(op))
	nl.AddChild(circuit.Inverter("wldrv", wlDriverW, 1), float64(ca.arr.Rows*ca.arr.NSub))
	return nl.LeakagePower(ca.t, op)
}

func (ca *cellArray) Delay(op device.OperatingPoint) float64 {
	t := ca.t
	dChain := ca.wl.Delay(t, op, ca.handoffCap(op), ca.wordlineCap(op))

	// Wordline wire RC (distributed).
	wlWire := circuit.Wire{LengthM: ca.arr.WordlineLength(t, op)}
	dWire := 0.38 * wlWire.R(t) * wlWire.C(t)

	// Bitline discharge to the sense threshold by the cell read current.
	cbl := ca.bitlineCap(op)
	iread := ca.cell.ReadCurrent(t, op)
	dBitline := cbl * (sram.BitlineSwing * t.Vdd) / iread

	// Sense amplifier resolution.
	dSense := sram.SenseDelay(t, op)

	return dChain + dWire + dBitline + dSense
}

func (ca *cellArray) DynamicEnergy(op device.OperatingPoint) float64 {
	t := ca.t
	active := float64(ca.arr.ActiveSubarrays())
	// One wordline swings rail to rail in each active subarray.
	eWL := circuit.SwitchingEnergy(t, ca.wordlineCap(op)+circuit.Wire{LengthM: ca.arr.WordlineLength(t, op)}.C(t), 1) * active
	// Every bitline pair in the active subarrays develops the sense swing
	// and is precharged back.
	nBL := float64(ca.arr.Cols) * active
	eBL := circuit.SwitchingEnergy(t, ca.bitlineCap(op), sram.BitlineSwing) * nBL
	// Sense amplifiers fire on the selected columns.
	nSA := float64(ca.arr.SenseAmps()) / float64(ca.arr.NSub) * active
	eSA := circuit.SwitchingEnergy(t, t.GateCap(8*t.WMin, op), 1) * nSA
	return eWL + eBL + eSA
}

// --- Row decoder ------------------------------------------------------------

type decoder struct {
	t   *device.Technology
	arr geom.Array
	p   Params
}

func newDecoder(t *device.Technology, arr geom.Array, p Params) *decoder {
	return &decoder{t: t, arr: arr, p: p}
}

func (d *decoder) ID() PartID { return PartDecoder }

// nand3InputCap is the load one predecode line sees per row gate input.
func (d *decoder) nand3InputCap(op device.OperatingPoint) float64 {
	// Row NAND: stacked NMOS (3x upsized) plus PMOS per input.
	return d.t.GateCap(2*d.t.WMin*3+2*d.t.WMin*circuit.BetaP, op) / 3
}

func (d *decoder) Leakage(op device.OperatingPoint) circuit.Leakage {
	nl := &circuit.Netlist{Name: "decoder"}
	rows := d.arr.Rows * d.arr.NSub
	// One row NAND3 per wordline; exactly one row is selected per subarray
	// bank, so pAllHigh ~ 1/Rows.
	pSel := 1.0 / float64(d.arr.Rows)
	nl.AddChild(circuit.NAND("rownand", 3, 2*d.t.WMin, pSel), float64(rows))
	// Predecoders: one bank of ceil(bits/3) groups of 8 NAND3 per subarray,
	// 1-of-8 selected in each group.
	groups := (d.arr.AddressBits() + 2) / 3
	nl.AddChild(circuit.NAND("predec", 3, 4*d.t.WMin, 1.0/8), float64(groups*8*d.arr.NSub))
	// Address input buffers per subarray.
	nl.AddChild(circuit.Inverter("abuf", 4*d.t.WMin, 0.5), float64(d.arr.AddressBits()*d.arr.NSub))
	return nl.LeakagePower(d.t, op)
}

func (d *decoder) Delay(op device.OperatingPoint) float64 {
	t := d.t
	const geNAND3 = 5.0 / 3.0 // logical effort of a 3-input NAND

	// Stage 1: address buffer drives the predecode NAND inputs (8 gates).
	c1 := 8 * t.GateCap(4*t.WMin*(1+circuit.BetaP), op) / 3
	d1 := circuit.GateDelay(t, op, 4*t.WMin, c1)

	// Stage 2: predecode NAND drives its predecode line: a wire spanning the
	// subarray plus Rows/8 row-gate inputs.
	wire := circuit.Wire{LengthM: d.arr.BitlineLength(t, op)}
	c2 := wire.C(t) + float64(d.arr.Rows)/8*d.nand3InputCap(op)
	d2 := geNAND3*circuit.GateDelay(t, op, 4*t.WMin, c2) + 0.38*wire.R(t)*wire.C(t)

	// Stage 3: the selected row NAND drives the wordline driver input.
	c3 := t.GateCap(4*t.WMin*(1+circuit.BetaP), op)
	d3 := geNAND3 * circuit.GateDelay(t, op, 2*t.WMin, c3)

	return d1 + d2 + d3
}

func (d *decoder) DynamicEnergy(op device.OperatingPoint) float64 {
	t := d.t
	active := float64(d.arr.ActiveSubarrays())
	// Address buffers and predecode lines toggle in active subarrays.
	wire := circuit.Wire{LengthM: d.arr.BitlineLength(t, op)}
	cLine := wire.C(t) + float64(d.arr.Rows)/8*d.nand3InputCap(op)
	groups := float64((d.arr.AddressBits() + 2) / 3)
	// Per access, in each group one line falls and one rises.
	return active * groups * 2 * circuit.SwitchingEnergy(t, cLine, 1) * d.p.ActivityFactor * 2
}

// --- Address and data bus drivers -------------------------------------------

// busDrivers is one bank of bus drivers: a buffer chain per bit driving
// the bus wire between the cache macro and its client. The two banks
// differ only in their bit count and far-end load. The address bank
// (PartAddrDrivers) carries cachecfg.AddressBits and also drives the
// decoder's input buffers in every subarray; the data bank
// (PartDataDrivers) carries the organization's output bits into the
// client's lumped load, Params.ExternalLoadF.
type busDrivers struct {
	t     *device.Technology
	arr   geom.Array
	p     Params
	id    PartID
	bits  int
	chain circuit.Chain // depth frozen at the design point

	// decoderBufs is the number of decoder input buffers on the bus (0 for
	// the data bank); farLoadF is the lumped far-end load (0 for the
	// address bank). A bank without a term adds an exact zero.
	decoderBufs int
	farLoadF    float64
}

func newBusDrivers(t *device.Technology, arr geom.Array, p Params, id PartID) *busDrivers {
	b := &busDrivers{t: t, arr: arr, p: p, id: id}
	if id == PartAddrDrivers {
		b.bits, b.decoderBufs = cachecfg.AddressBits, arr.NSub
	} else {
		b.bits, b.farLoadF = arr.Cfg.OutputBits, p.ExternalLoadF
	}
	dp := p.DesignPoint
	b.chain = circuit.OptimalChain(t, dp, b.cin(dp), b.cload(dp))
	return b
}

func (b *busDrivers) ID() PartID { return b.id }

func (b *busDrivers) cin(op device.OperatingPoint) float64 {
	return b.t.GateCap(2*b.t.WMin*(1+circuit.BetaP), op)
}

func (b *busDrivers) wire(op device.OperatingPoint) circuit.Wire {
	return circuit.Wire{LengthM: b.p.ExternalBusM + b.arr.BusLength(b.t, op)}
}

func (b *busDrivers) cload(op device.OperatingPoint) float64 {
	// Bus wire, the decoder's input buffers across subarrays, and the
	// client's far-end load.
	return b.wire(op).C(b.t) + float64(b.decoderBufs)*b.t.GateCap(4*b.t.WMin*(1+circuit.BetaP), op) + b.farLoadF
}

func (b *busDrivers) Leakage(op device.OperatingPoint) circuit.Leakage {
	nl := &circuit.Netlist{Name: b.id.String()}
	nl.AddChild(circuit.Inverter("chain", b.chain.WidthM(b.t, op, b.cin(op), b.cload(op)), 0.5), float64(b.bits))
	return nl.LeakagePower(b.t, op)
}

func (b *busDrivers) Delay(op device.OperatingPoint) float64 {
	t := b.t
	dChain := b.chain.Delay(t, op, b.cin(op), b.cload(op))
	// Distributed wire RC, plus the wire resistance into the far-end load.
	w := b.wire(op)
	dWire := 0.38*w.R(t)*w.C(t) + 0.69*w.R(t)*b.farLoadF
	return dChain + dWire
}

func (b *busDrivers) DynamicEnergy(op device.OperatingPoint) float64 {
	return float64(b.bits) * b.p.ActivityFactor *
		circuit.SwitchingEnergy(b.t, b.cload(op), 1)
}
