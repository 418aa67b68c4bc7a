// Package circuit evaluates transistor netlists for total leakage power
// (subthreshold + gate, as in the paper's "total leakage"), switching
// energy, and delay.
//
// It is the HSPICE substitute of this reproduction: the SRAM cell, sense
// amplifier, decoder and driver netlists from internal/sram and
// internal/components are expressed as Netlist values, and this package
// reduces them to watts and seconds at a given (Vth, Tox) operating point.
//
// Leakage is computed from per-transistor DC states (off with a given
// drain-source voltage, or on with a given oxide voltage), with a series
// stack factor applied to subthreshold conduction. Delay uses the method of
// logical effort for gate chains and the Elmore approximation for wires.
package circuit

import (
	"fmt"
	"math"

	"repro/internal/device"
)

// LeakState is the DC state of a transistor for leakage accounting.
type LeakState int

const (
	// StateOff marks a transistor with Vgs=0: it conducts subthreshold
	// current set by its drain bias, plus edge (overlap) gate tunnelling.
	StateOff LeakState = iota
	// StateOn marks a conducting transistor: its full channel area
	// tunnels at the oxide voltage; it contributes no subthreshold leakage.
	StateOn
)

// Element is one transistor (or a probabilistically weighted population of
// identical transistors) inside a netlist.
type Element struct {
	Name   string
	Kind   device.MOSType
	WidthM float64 // width at the reference geometry (scales with Tox)
	State  LeakState
	// VFrac is the relevant voltage as a fraction of Vdd: drain-source for
	// StateOff, oxide voltage for StateOn.
	VFrac float64
	// Stack is the series-stack depth for subthreshold conduction; depth n
	// attenuates subthreshold leakage by StackFactor^(n-1). Minimum 1.
	Stack int
	// Count is the multiplicity. It may be fractional to encode state
	// probabilities (e.g. a NAND input high half the time).
	Count float64
}

// StackFactor is the per-extra-device attenuation of subthreshold leakage in
// a series stack (the well-known "stack effect"; ~5x per device).
const StackFactor = 0.2

// Leakage is a breakdown of leakage power into the two mechanisms the paper
// optimizes jointly.
type Leakage struct {
	SubthresholdW float64
	GateW         float64
}

// Total returns subthreshold + gate leakage in watts.
func (l Leakage) Total() float64 { return l.SubthresholdW + l.GateW }

// Add accumulates o (scaled by count) into l.
func (l *Leakage) Add(o Leakage, count float64) {
	l.SubthresholdW += o.SubthresholdW * count
	l.GateW += o.GateW * count
}

// Netlist is a named collection of elements and child netlists.
type Netlist struct {
	Name     string
	Elements []Element
	Children []Child
}

// Child is a sub-netlist instantiated Count times.
type Child struct {
	Netlist *Netlist
	Count   float64
}

// AddElement appends an element, defaulting Stack and Count sensibly.
func (n *Netlist) AddElement(e Element) {
	if e.Stack < 1 {
		e.Stack = 1
	}
	if e.Count == 0 {
		e.Count = 1
	}
	n.Elements = append(n.Elements, e)
}

// addWeighted appends an element only when its probability weight is
// positive; a zero-probability state must not default to Count=1.
func (n *Netlist) addWeighted(e Element) {
	if e.Count <= 0 {
		return
	}
	n.AddElement(e)
}

// AddChild instantiates sub count times.
func (n *Netlist) AddChild(sub *Netlist, count float64) {
	n.Children = append(n.Children, Child{Netlist: sub, Count: count})
}

// LeakagePower evaluates the netlist's leakage at the operating point.
func (n *Netlist) LeakagePower(t *device.Technology, op device.OperatingPoint) Leakage {
	var total Leakage
	for _, e := range n.Elements {
		total.Add(elementLeakage(t, op, e), e.Count)
	}
	for _, c := range n.Children {
		total.Add(c.Netlist.LeakagePower(t, op), c.Count)
	}
	return total
}

func elementLeakage(t *device.Technology, op device.OperatingPoint, e Element) Leakage {
	var l Leakage
	switch e.State {
	case StateOff:
		vds := e.VFrac * t.Vdd
		isub := t.SubthresholdCurrent(e.Kind, e.WidthM, op, vds)
		if e.Stack > 1 {
			isub *= math.Pow(StackFactor, float64(e.Stack-1))
		}
		l.SubthresholdW = isub * t.Vdd
		// Off transistors still tunnel through the gate-drain overlap.
		l.GateW = t.GateOverlapLeak(e.Kind, e.WidthM, op, vds) * t.Vdd
	case StateOn:
		vox := e.VFrac * t.Vdd
		l.GateW = t.GateLeakCurrent(e.Kind, e.WidthM, op, vox) * t.Vdd
	}
	return l
}

// CountTransistors returns the (weighted) number of transistors in the
// netlist, for reporting and sanity checks.
func (n *Netlist) CountTransistors() float64 {
	var c float64
	for _, e := range n.Elements {
		c += e.Count
	}
	for _, ch := range n.Children {
		c += ch.Netlist.CountTransistors() * ch.Count
	}
	return c
}

// --- Standard gates -------------------------------------------------------

// BetaP is the PMOS/NMOS width ratio used for roughly symmetric inverters.
const BetaP = 2.0

// Inverter returns an inverter netlist with the given NMOS width and
// probability pHigh that the input is high. Leakage states are weighted by
// the input probability: input low leaves the NMOS off (subthreshold) and
// the PMOS on (gate tunnelling); input high is the converse.
func Inverter(name string, wn float64, pHigh float64) *Netlist {
	wp := BetaP * wn
	n := &Netlist{Name: name}
	// Input low (probability 1-pHigh): NMOS off with full Vds, PMOS on.
	n.addWeighted(Element{Name: "mn.off", Kind: device.NMOS, WidthM: wn, State: StateOff, VFrac: 1, Count: 1 - pHigh})
	n.addWeighted(Element{Name: "mp.on", Kind: device.PMOS, WidthM: wp, State: StateOn, VFrac: 1, Count: 1 - pHigh})
	// Input high (probability pHigh): NMOS on, PMOS off with full Vds.
	n.addWeighted(Element{Name: "mn.on", Kind: device.NMOS, WidthM: wn, State: StateOn, VFrac: 1, Count: pHigh})
	n.addWeighted(Element{Name: "mp.off", Kind: device.PMOS, WidthM: wp, State: StateOff, VFrac: 1, Count: pHigh})
	return n
}

// NAND returns a k-input NAND gate netlist with each NMOS of width wn in a
// k-deep stack and k parallel PMOS of width BetaP*wn. pAllHigh is the
// probability that every input is high (output low); the dominant leakage
// state for decoders is "not selected" (output high, NMOS stack blocking),
// which enjoys the stack effect.
func NAND(name string, k int, wn float64, pAllHigh float64) *Netlist {
	if k < 2 {
		panic("circuit: NAND requires k >= 2")
	}
	wp := BetaP * wn
	// Series NMOS are upsized by k to preserve drive.
	wnStack := wn * float64(k)
	n := &Netlist{Name: name}
	pNotSel := 1 - pAllHigh
	// Not selected: NMOS stack off (stack effect), one PMOS on per low input
	// (approximate: one conducting PMOS), others off with ~0 Vds.
	n.addWeighted(Element{Name: "stack.off", Kind: device.NMOS, WidthM: wnStack, State: StateOff, VFrac: 1, Stack: k, Count: pNotSel})
	n.addWeighted(Element{Name: "mp.on", Kind: device.PMOS, WidthM: wp, State: StateOn, VFrac: 1, Count: pNotSel})
	// Selected: all k NMOS on (gate leak each), all PMOS off in parallel.
	n.addWeighted(Element{Name: "stack.on", Kind: device.NMOS, WidthM: wnStack, State: StateOn, VFrac: 1, Count: pAllHigh * float64(k)})
	n.addWeighted(Element{Name: "mp.off", Kind: device.PMOS, WidthM: wp, State: StateOff, VFrac: 1, Count: pAllHigh * float64(k)})
	return n
}

// --- Delay ----------------------------------------------------------------

// Wire is a distributed RC interconnect segment.
type Wire struct {
	LengthM float64
}

// R returns the total wire resistance.
func (w Wire) R(t *device.Technology) float64 { return t.WireRPerM * w.LengthM }

// C returns the total wire capacitance.
func (w Wire) C(t *device.Technology) float64 { return t.WireCPerM * w.LengthM }

// GateDelay returns the delay of a single gate with effective drive
// resistance from an NMOS of width wDrive, loaded by cLoad plus its own
// parasitic junction capacitance.
func GateDelay(t *device.Technology, op device.OperatingPoint, wDrive, cLoad float64) float64 {
	r := t.DriveResistance(device.NMOS, wDrive, op)
	cj := t.JunctionCap(wDrive*(1+BetaP), op)
	return 0.69 * r * (cLoad + cj)
}

// ChainResult describes an optimally sized buffer chain computed by the
// method of logical effort.
type ChainResult struct {
	Stages      int
	StageEffort float64
	Delay       float64 // seconds
	// TotalWidthM is the summed NMOS width of all stages, used for leakage
	// and area accounting of the chain.
	TotalWidthM float64
	// EnergyPerSwitch is the CV^2 energy of charging all internal stage
	// capacitances plus the load once.
	EnergyPerSwitch float64
}

// parasiticDelay is the intrinsic (self-load) delay of an inverter stage in
// units of Tau.
const parasiticDelay = 1.0

// OptimalChain sizes an inverter chain from input capacitance cIn to load
// cLoad using logical effort, choosing the number of stages that minimizes
// delay with a target stage effort near 4. It returns the chain delay at the
// operating point, along with total device width for leakage accounting.
//
// cIn is the capacitance the chain is allowed to present to its driver; the
// first stage has NMOS width such that its input capacitance equals cIn.
func OptimalChain(t *device.Technology, op device.OperatingPoint, cIn, cLoad float64) ChainResult {
	if cIn <= 0 {
		panic("circuit: OptimalChain requires cIn > 0")
	}
	if cLoad < cIn {
		cLoad = cIn // degenerate: a single minimum stage suffices
	}
	f := cLoad / cIn
	// Number of stages minimizing N*(F^(1/N) + p): near ln(F)/ln(4).
	n := int(math.Round(math.Log(f) / math.Log(4)))
	if n < 1 {
		n = 1
	}
	tau := t.Tau(op)
	best := ChainResult{Stages: -1, Delay: math.Inf(1)}
	for _, cand := range []int{n - 1, n, n + 1} {
		if cand < 1 {
			continue
		}
		effort := math.Pow(f, 1/float64(cand))
		d := float64(cand) * (effort + parasiticDelay) * tau
		if d < best.Delay {
			best = ChainResult{Stages: cand, StageEffort: effort, Delay: d}
		}
	}
	// Stage input caps form a geometric series cIn * effort^i.
	wPerCap := widthPerGateCap(t, op)
	var totalW, totalC float64
	c := cIn
	for i := 0; i < best.Stages; i++ {
		totalW += c * wPerCap / (1 + BetaP) // NMOS share of the stage width
		totalC += c
		c *= best.StageEffort
	}
	best.TotalWidthM = totalW
	best.EnergyPerSwitch = (totalC - cIn + cLoad) * t.Vdd * t.Vdd
	return best
}

// widthPerGateCap returns metres of transistor width per farad of gate
// capacitance at the operating point.
func widthPerGateCap(t *device.Technology, op device.OperatingPoint) float64 {
	return t.WMin / t.GateCap(t.WMin, op)
}

// SwitchingEnergy returns the CV^2 energy of one full-swing transition of
// capacitance c, or a partial swing of vFrac*Vdd (bitlines swing ~10%).
func SwitchingEnergy(t *device.Technology, c, vFrac float64) float64 {
	return c * t.Vdd * (vFrac * t.Vdd)
}

// String summarizes the chain for diagnostics.
func (c ChainResult) String() string {
	return fmt.Sprintf("chain{stages=%d effort=%.2f delay=%.3gs}", c.Stages, c.StageEffort, c.Delay)
}
