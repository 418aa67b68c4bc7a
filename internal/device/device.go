// Package device models nanometer-scale MOS transistors in the style of the
// Berkeley Predictive Technology Model (BPTM) for a 65 nm node, as used by
// Bai et al. (DATE 2005).
//
// The model exposes the two process knobs the paper studies:
//
//   - Vth, the threshold voltage (0.2 V – 0.5 V), which controls
//     subthreshold leakage exponentially and drive current polynomially; and
//   - Tox, the gate-oxide thickness (10 Å – 14 Å), which controls gate
//     tunnelling leakage exponentially and oxide capacitance inversely.
//
// Following Section 2 of the paper, increasing Tox at constant drawn channel
// length would surrender gate control of the channel (DIBL), so the drawn
// channel length — and, for memory cells, the transistor widths — scale
// proportionally with Tox. The cell therefore grows in both dimensions and
// the area impact is taken into account by callers via ScaleFactor.
package device

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// MOSType distinguishes n-channel from p-channel devices.
type MOSType int

const (
	// NMOS is an n-channel transistor.
	NMOS MOSType = iota
	// PMOS is a p-channel transistor.
	PMOS
)

// String returns "NMOS" or "PMOS".
func (t MOSType) String() string {
	if t == PMOS {
		return "PMOS"
	}
	return "NMOS"
}

// OperatingPoint is one (Vth, Tox) assignment — the decision variable of all
// the paper's optimization problems. Vth is in volts; Tox in metres.
type OperatingPoint struct {
	Vth  float64 // threshold voltage magnitude, V
	ToxM float64 // physical gate-oxide thickness, m
}

// ToxAngstrom returns Tox in angstroms, the unit used throughout the paper.
func (op OperatingPoint) ToxAngstrom() float64 { return units.ToAngstrom(op.ToxM) }

// String formats the point the way the paper quotes values, e.g.
// "(Vth=0.30V, Tox=12.0A)".
func (op OperatingPoint) String() string {
	return fmt.Sprintf("(Vth=%.2fV, Tox=%.1fA)", op.Vth, op.ToxAngstrom())
}

// OP is shorthand for constructing an OperatingPoint from volts and angstroms.
func OP(vth, toxAngstrom float64) OperatingPoint {
	return OperatingPoint{Vth: vth, ToxM: units.FromAngstrom(toxAngstrom)}
}

// Technology holds the calibrated constants of a process node. All lengths
// are metres, voltages volts, currents amperes, temperatures kelvin.
type Technology struct {
	Name string

	Vdd   float64 // supply voltage
	TempK float64 // operating temperature (leakage is evaluated hot)

	// Geometry at the thin-oxide reference point.
	LMin    float64 // drawn channel length at ToxMin
	WMin    float64 // minimum transistor width
	ToxMin  float64 // thinnest legal oxide
	ToxMax  float64 // thickest legal oxide
	VthMin  float64 // lowest legal threshold
	VthMax  float64 // highest legal threshold
	PolyDep float64 // electrical-Tox correction (poly depletion + darkspace)

	// Subthreshold conduction.
	SwingN  float64 // subthreshold swing ideality factor n
	DIBL    float64 // drain-induced barrier lowering, V/V
	IoffRef float64 // NMOS off current per metre width at (VthRef, ToxMin), A/m
	VthRef  float64 // reference threshold for IoffRef
	PNRatio float64 // PMOS/NMOS subthreshold and drive ratio (mobility)

	// Gate tunnelling.
	GateJ0      float64 // NMOS gate current density at ToxMin and Vox=Vdd, A/m^2
	GateDecade  float64 // Tox increase per decade of gate-leakage reduction, m
	GatePHole   float64 // PMOS gate leakage relative to NMOS (hole tunnelling)
	OverlapFrac float64 // off-state edge (overlap) tunnelling, fraction of on-state area leakage

	// Drive current (alpha-power law).
	Alpha float64 // velocity-saturation exponent
	KDrv  float64 // drive prefactor, m/s-like units folded into calibration

	// GeomGamma is the fraction of the relative Tox increase that the drawn
	// channel length (and cell widths) must track to preserve electrostatic
	// control: L = LMin * (1 + GeomGamma*(Tox/ToxMin - 1)). The paper
	// requires lengths to grow with Tox; halide-spacer and retrograde-well
	// tricks keep the required growth below proportional, and a value of
	// 0.25 reproduces the paper's observation that delay is only weakly
	// (linearly) dependent on Tox while area still pays a visible penalty.
	GeomGamma float64

	// Interconnect (per metre of wire).
	WireRPerM float64 // ohm/m
	WireCPerM float64 // F/m

	// Derived, cached by calibrate().
	i0 float64 // subthreshold prefactor (A, per square W/L)
}

// Default65nm returns the technology used for every experiment in this
// repository: a 65 nm high-performance node with BPTM-like leakage behaviour.
// Calibration targets: NMOS Ioff ~ 300 nA/um at Vth=0.2 V (hot), gate leakage
// ~ 450 A/cm^2 at Tox=10 A falling one decade per 2.2 A, Ion ~ 600 uA/um at
// Vth=0.2 V.
func Default65nm() *Technology {
	t := &Technology{
		Name:    "bptm65",
		Vdd:     1.0,
		TempK:   358, // 85 C
		LMin:    35 * units.Nanometre,
		WMin:    80 * units.Nanometre,
		ToxMin:  units.FromAngstrom(10),
		ToxMax:  units.FromAngstrom(14),
		VthMin:  0.20,
		VthMax:  0.50,
		PolyDep: units.FromAngstrom(6),

		SwingN:  1.35,
		DIBL:    0.12,
		IoffRef: 300e-9 / units.Micrometre, // 300 nA/um -> A/m
		VthRef:  0.20,
		PNRatio: 0.5,

		GateJ0:      450e4, // 450 A/cm^2 -> A/m^2
		GateDecade:  units.FromAngstrom(2.2),
		GatePHole:   0.1,
		OverlapFrac: 0.08,

		Alpha:     1.5,
		KDrv:      0, // set by calibrate
		GeomGamma: 0.25,

		WireRPerM: 1.8e5,   // 0.18 ohm/um, mid-level metal
		WireCPerM: 2.0e-10, // 0.20 fF/um
	}
	t.calibrate()
	return t
}

// Scaled45nm projects the technology one node ahead, for the introduction's
// claim that "the fraction of the leakage power [will] exceed that of the
// dynamic power in future processor generations": shorter channels, thinner
// minimum oxide (pre-high-k), roughly 1.5x the subthreshold leakage per
// width, and an order of magnitude more gate tunnelling at the thin corner.
func Scaled45nm() *Technology {
	t := Default65nm()
	t.Name = "proj45"
	t.LMin = 25 * units.Nanometre
	t.WMin = 60 * units.Nanometre
	t.ToxMin = units.FromAngstrom(9)
	t.ToxMax = units.FromAngstrom(13)
	t.IoffRef = 450e-9 / units.Micrometre
	t.GateJ0 = 4500e4 // 10x: SiO2 tunnelling one node on
	t.GateDecade = units.FromAngstrom(2.0)
	t.DIBL = 0.15
	t.calibrate()
	return t
}

// calibrate derives the internal prefactors from the calibration targets.
func (t *Technology) calibrate() {
	// Subthreshold prefactor so that an NMOS of W=1m, L=LMin leaks IoffRef*1m
	// at Vth=VthRef, Vgs=0, Vds=Vdd.
	nvt := t.SwingN * units.ThermalVoltage(t.TempK)
	expo := math.Exp((-t.VthRef + t.DIBL*t.Vdd) / nvt)
	wOverL := 1.0 / t.LMin
	t.i0 = t.IoffRef / (wOverL * expo)

	// Drive prefactor so Ion(Vth=0.2, ToxMin) = 600 uA/um for NMOS.
	const ionTarget = 600e-6 / units.Micrometre // A per metre of width
	cox := units.OxideCapacitancePerArea(t.ToxMin + t.PolyDep)
	vdsat := math.Pow(t.Vdd-0.2, t.Alpha)
	t.KDrv = ionTarget / (wOverL * cox * vdsat)
}

// ScaleFactor returns the geometric scaling s mandated by the paper: drawn
// channel length (and memory-cell widths) grow with Tox to preserve
// electrostatic integrity, so linear dimensions scale by s and areas by s^2.
// s = 1 + GeomGamma*(Tox/ToxMin - 1).
func (t *Technology) ScaleFactor(op OperatingPoint) float64 {
	return 1 + t.GeomGamma*(op.ToxM/t.ToxMin-1)
}

// ChannelLength returns the drawn channel length at the operating point.
func (t *Technology) ChannelLength(op OperatingPoint) float64 {
	return t.LMin * t.ScaleFactor(op)
}

// Cox returns the gate-oxide capacitance per unit area (F/m^2) including the
// poly-depletion correction.
func (t *Technology) Cox(op OperatingPoint) float64 {
	return units.OxideCapacitancePerArea(op.ToxM + t.PolyDep)
}

// SubthresholdCurrent returns the drain current (A) of a transistor of the
// given type and width (m) biased off (Vgs = 0) with the given drain-source
// voltage. Width is the width at the reference geometry; both W and L scale
// with Tox, so W/L — and hence the current — is scale-invariant, which is
// exactly why the paper treats Vth as the subthreshold knob.
func (t *Technology) SubthresholdCurrent(kind MOSType, widthM float64, op OperatingPoint, vds float64) float64 {
	nvt := t.SwingN * units.ThermalVoltage(t.TempK)
	wOverL := widthM / t.LMin
	i := t.i0 * wOverL * math.Exp((-op.Vth+t.DIBL*vds)/nvt) * (1 - math.Exp(-vds/units.ThermalVoltage(t.TempK)))
	if kind == PMOS {
		i *= t.PNRatio
	}
	return i
}

// OffCurrent is SubthresholdCurrent at the worst case Vds = Vdd.
//
//lint:allow deadexport device's, circuit's and sram's tests and device's Example read the worst-case off current
func (t *Technology) OffCurrent(kind MOSType, widthM float64, op OperatingPoint) float64 {
	return t.SubthresholdCurrent(kind, widthM, op, t.Vdd)
}

// GateCurrentDensity returns the gate tunnelling current density (A/m^2) at
// the given oxide voltage. The exponential Tox dependence is the second
// leakage mechanism the paper's total-leakage model captures.
func (t *Technology) GateCurrentDensity(kind MOSType, op OperatingPoint, vox float64) float64 {
	if vox <= 0 {
		return 0
	}
	j := t.GateJ0 * math.Pow(10, -(op.ToxM-t.ToxMin)/t.GateDecade)
	j *= (vox / t.Vdd) * (vox / t.Vdd)
	if kind == PMOS {
		j *= t.GatePHole
	}
	return j
}

// GateLeakCurrent returns the gate tunnelling current (A) of a transistor
// whose channel sees the full oxide voltage vox. Gate area is W*L at the
// scaled geometry (both dimensions grow with Tox).
func (t *Technology) GateLeakCurrent(kind MOSType, widthM float64, op OperatingPoint, vox float64) float64 {
	s := t.ScaleFactor(op)
	area := (widthM * s) * t.ChannelLength(op)
	return t.GateCurrentDensity(kind, op, vox) * area
}

// GateOverlapLeak returns the off-state edge-tunnelling current (A) through
// the gate-drain overlap of an off transistor whose drain is at vox.
func (t *Technology) GateOverlapLeak(kind MOSType, widthM float64, op OperatingPoint, vox float64) float64 {
	return t.OverlapFrac * t.GateLeakCurrent(kind, widthM, op, vox)
}

// OnCurrent returns the saturation drive current (A) of a transistor of the
// given width using the alpha-power law. Drive falls as Cox shrinks with
// thicker oxide and as (Vdd-Vth)^alpha shrinks with higher threshold — the
// two delay penalties the optimizer trades against leakage.
func (t *Technology) OnCurrent(kind MOSType, widthM float64, op OperatingPoint) float64 {
	return t.OnCurrentDerated(kind, widthM, op, 0)
}

// OnCurrentDerated is OnCurrent with the gate overdrive reduced by
// vgsDerate volts. SRAM read paths use it: during a read the pass gate's
// source sits at the cell storage node (a few hundred millivolts above
// ground), so its effective overdrive is Vdd - derate - Vth, and cell read
// current degrades with Vth much faster than logic drive does. A small
// overdrive floor keeps the model defined at the highest thresholds.
func (t *Technology) OnCurrentDerated(kind MOSType, widthM float64, op OperatingPoint, vgsDerate float64) float64 {
	const overdriveFloor = 0.05
	ov := t.Vdd - vgsDerate - op.Vth
	if ov < overdriveFloor {
		ov = overdriveFloor
	}
	wOverL := widthM / t.LMin // scale-invariant: W and L grow together
	i := t.KDrv * wOverL * t.Cox(op) * math.Pow(ov, t.Alpha)
	if kind == PMOS {
		i *= t.PNRatio
	}
	return i
}

// CellReadDerate is the gate-overdrive loss of the SRAM read path (storage
// node rise plus bitline regulation).
const CellReadDerate = 0.20

// GateCap returns the input (gate) capacitance (F) of a transistor of the
// given reference width at the operating point: area term plus a fixed
// overlap/fringe allowance of 20%.
func (t *Technology) GateCap(widthM float64, op OperatingPoint) float64 {
	s := t.ScaleFactor(op)
	area := (widthM * s) * t.ChannelLength(op)
	return 1.2 * t.Cox(op) * area
}

// JunctionCap returns the source/drain junction capacitance (F) for a
// transistor of the given reference width. Junction capacitance is dominated
// by width; it scales linearly with s.
func (t *Technology) JunctionCap(widthM float64, op OperatingPoint) float64 {
	const cjPerM = 8e-10 // 0.8 fF/um of width
	return cjPerM * widthM * t.ScaleFactor(op)
}

// DriveResistance returns the effective switching resistance (ohm) of a
// transistor of the given width: R = Vdd / Ion, the effective-current
// approximation. Doubling width halves the resistance, which is what
// driver-chain sizing exploits.
func (t *Technology) DriveResistance(kind MOSType, widthM float64, op OperatingPoint) float64 {
	ion := t.OnCurrent(kind, widthM, op)
	if ion <= 0 {
		return math.Inf(1)
	}
	return t.Vdd / ion
}

// Tau returns the technology time constant at the operating point: the delay
// of a minimum inverter driving an identical inverter (~FO1), including its
// own junction parasitics. All gate delays in the circuit evaluator are
// multiples of Tau via logical effort. At the fast corner this yields an
// FO4 of ~15 ps, in line with published 65 nm data.
func (t *Technology) Tau(op OperatingPoint) float64 {
	cg := t.GateCap(t.WMin, op)
	cj := t.JunctionCap(t.WMin, op)
	r := t.DriveResistance(NMOS, t.WMin, op)
	return r * (cg + cj)
}
