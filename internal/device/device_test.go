package device

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func tech() *Technology { return Default65nm() }

// Validate reports an error when an operating point lies outside the legal
// knob ranges of the technology.
func (t *Technology) Validate(op OperatingPoint) error {
	const eps = 1e-12
	if op.Vth < t.VthMin-eps || op.Vth > t.VthMax+eps {
		return fmt.Errorf("device: Vth %.3f V outside [%.2f, %.2f]", op.Vth, t.VthMin, t.VthMax)
	}
	if op.ToxM < t.ToxMin-eps || op.ToxM > t.ToxMax+eps {
		return fmt.Errorf("device: Tox %.2f A outside [%.1f, %.1f]",
			units.ToAngstrom(op.ToxM), units.ToAngstrom(t.ToxMin), units.ToAngstrom(t.ToxMax))
	}
	return nil
}

// FO4 returns the fanout-of-4 inverter delay, the conventional
// technology-independent delay yardstick (~5 Tau with parasitics).
func (t *Technology) FO4(op OperatingPoint) float64 {
	return 5 * t.Tau(op)
}

// randOP maps two arbitrary float64s into a legal operating point, for
// property-based tests.
func randOP(t *Technology, a, b float64) OperatingPoint {
	fa := math.Mod(math.Abs(a), 1)
	fb := math.Mod(math.Abs(b), 1)
	if math.IsNaN(fa) {
		fa = 0.5
	}
	if math.IsNaN(fb) {
		fb = 0.5
	}
	return OperatingPoint{
		Vth:  t.VthMin + fa*(t.VthMax-t.VthMin),
		ToxM: t.ToxMin + fb*(t.ToxMax-t.ToxMin),
	}
}

func TestCalibrationTargets(t *testing.T) {
	tech := tech()
	op := OP(0.20, 10)

	// Ioff at the calibration point must match the target 300 nA/um.
	ioff := tech.OffCurrent(NMOS, units.Micrometre, op)
	if !units.ApproxEqual(ioff, 300e-9, 1e-6, 0) {
		t.Errorf("Ioff(0.2V,10A) = %v A/um, want 300e-9", ioff)
	}

	// Ion at the calibration point must match the target 600 uA/um.
	ion := tech.OnCurrent(NMOS, units.Micrometre, op)
	if !units.ApproxEqual(ion, 600e-6, 1e-6, 0) {
		t.Errorf("Ion(0.2V,10A) = %v A/um, want 600e-6", ion)
	}

	// Gate density at ToxMin, full Vdd must be J0.
	j := tech.GateCurrentDensity(NMOS, op, tech.Vdd)
	if !units.ApproxEqual(j, 450e4, 1e-9, 0) {
		t.Errorf("Jg(10A, 1V) = %v A/m^2, want 450e4", j)
	}
}

func TestSubthresholdExponentialInVth(t *testing.T) {
	tech := tech()
	// One decade of Ioff per n*vT*ln(10) of Vth.
	nvt := tech.SwingN * units.ThermalVoltage(tech.TempK)
	decadeVth := nvt * math.Ln10

	i1 := tech.OffCurrent(NMOS, units.Micrometre, OP(0.25, 12))
	i2 := tech.OffCurrent(NMOS, units.Micrometre, OP(0.25+decadeVth, 12))
	ratio := i1 / i2
	if !units.ApproxEqual(ratio, 10, 1e-6, 0) {
		t.Errorf("Ioff decade ratio = %v, want 10 (decade Vth = %v mV)", ratio, decadeVth*1e3)
	}
}

func TestGateLeakDecadePerGateDecade(t *testing.T) {
	tech := tech()
	j1 := tech.GateCurrentDensity(NMOS, OP(0.3, 10), 1.0)
	j2 := tech.GateCurrentDensity(NMOS, OP(0.3, 12.2), 1.0)
	if !units.ApproxEqual(j1/j2, 10, 1e-9, 0) {
		t.Errorf("gate leak decade per 2.2A violated: ratio %v", j1/j2)
	}
}

func TestGateLeakZeroVox(t *testing.T) {
	tech := tech()
	if got := tech.GateLeakCurrent(NMOS, units.Micrometre, OP(0.3, 10), 0); got != 0 {
		t.Errorf("gate leak at Vox=0 = %v, want 0", got)
	}
	if got := tech.GateCurrentDensity(NMOS, OP(0.3, 10), -0.5); got != 0 {
		t.Errorf("gate leak at negative Vox = %v, want 0", got)
	}
}

func TestPMOSRatios(t *testing.T) {
	tech := tech()
	op := OP(0.3, 12)
	w := units.Micrometre
	if r := tech.OffCurrent(PMOS, w, op) / tech.OffCurrent(NMOS, w, op); !units.ApproxEqual(r, tech.PNRatio, 1e-9, 0) {
		t.Errorf("PMOS/NMOS Ioff ratio = %v, want %v", r, tech.PNRatio)
	}
	if r := tech.OnCurrent(PMOS, w, op) / tech.OnCurrent(NMOS, w, op); !units.ApproxEqual(r, tech.PNRatio, 1e-9, 0) {
		t.Errorf("PMOS/NMOS Ion ratio = %v, want %v", r, tech.PNRatio)
	}
	if r := tech.GateLeakCurrent(PMOS, w, op, 1) / tech.GateLeakCurrent(NMOS, w, op, 1); !units.ApproxEqual(r, tech.GatePHole, 1e-9, 0) {
		t.Errorf("PMOS/NMOS gate ratio = %v, want %v", r, tech.GatePHole)
	}
}

func TestLeakageMonotonicityProperties(t *testing.T) {
	tech := tech()
	// Ioff strictly decreasing in Vth at fixed Tox.
	f := func(a, b, c float64) bool {
		p1 := randOP(tech, a, c)
		p2 := randOP(tech, b, c)
		if p1.Vth == p2.Vth {
			return true
		}
		lo, hi := p1, p2
		if lo.Vth > hi.Vth {
			lo, hi = hi, lo
		}
		return tech.OffCurrent(NMOS, tech.WMin, lo) > tech.OffCurrent(NMOS, tech.WMin, hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("Ioff not monotone in Vth: %v", err)
	}

	// Gate density strictly decreasing in Tox at fixed Vth.
	g := func(a, b, c float64) bool {
		p1 := randOP(tech, c, a)
		p2 := randOP(tech, c, b)
		if p1.ToxM == p2.ToxM {
			return true
		}
		lo, hi := p1, p2
		if lo.ToxM > hi.ToxM {
			lo, hi = hi, lo
		}
		return tech.GateCurrentDensity(NMOS, lo, 1) > tech.GateCurrentDensity(NMOS, hi, 1)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Errorf("gate leakage not monotone in Tox: %v", err)
	}
}

func TestDriveMonotonicityProperties(t *testing.T) {
	tech := tech()
	// Ion decreasing in Vth.
	f := func(a, b, c float64) bool {
		p1 := randOP(tech, a, c)
		p2 := randOP(tech, b, c)
		if p1.Vth == p2.Vth {
			return true
		}
		lo, hi := p1, p2
		if lo.Vth > hi.Vth {
			lo, hi = hi, lo
		}
		return tech.OnCurrent(NMOS, tech.WMin, lo) > tech.OnCurrent(NMOS, tech.WMin, hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("Ion not monotone decreasing in Vth: %v", err)
	}
	// Tau increasing in both knobs.
	g := func(a, b float64) bool {
		p := randOP(tech, a, b)
		base := OP(tech.VthMin, units.ToAngstrom(tech.ToxMin))
		return tech.Tau(p) >= tech.Tau(base)*0.999999
	}
	if err := quick.Check(g, nil); err != nil {
		t.Errorf("Tau not minimized at fast corner: %v", err)
	}
}

func TestTauIncreasesWithEachKnob(t *testing.T) {
	tech := tech()
	vths := units.GridSteps(tech.VthMin, tech.VthMax, 0.05)
	for i := 1; i < len(vths); i++ {
		if tech.Tau(OP(vths[i], 12)) <= tech.Tau(OP(vths[i-1], 12)) {
			t.Errorf("Tau not increasing in Vth at %v", vths[i])
		}
	}
	toxs := units.GridSteps(10, 14, 0.5)
	for i := 1; i < len(toxs); i++ {
		if tech.Tau(OP(0.3, toxs[i])) <= tech.Tau(OP(0.3, toxs[i-1])) {
			t.Errorf("Tau not increasing in Tox at %vA", toxs[i])
		}
	}
}

func TestScaleFactor(t *testing.T) {
	tech := tech()
	if s := tech.ScaleFactor(OP(0.3, 10)); !units.ApproxEqual(s, 1.0, 1e-9, 0) {
		t.Errorf("scale at ToxMin = %v, want 1", s)
	}
	want := 1 + tech.GeomGamma*(14.0/10.0-1)
	if s := tech.ScaleFactor(OP(0.3, 14)); !units.ApproxEqual(s, want, 1e-9, 0) {
		t.Errorf("scale at 14A = %v, want %v", s, want)
	}
	// Scaling must be strictly increasing in Tox and exceed 1 above ToxMin.
	if tech.ScaleFactor(OP(0.3, 12)) <= 1 || tech.ScaleFactor(OP(0.3, 14)) <= tech.ScaleFactor(OP(0.3, 12)) {
		t.Error("scale factor must grow with Tox")
	}
	// Channel length and cell area follow the scale rule.
	l10 := tech.ChannelLength(OP(0.3, 10))
	l14 := tech.ChannelLength(OP(0.3, 14))
	if !units.ApproxEqual(l14/l10, want, 1e-9, 0) {
		t.Errorf("L(14)/L(10) = %v, want %v", l14/l10, want)
	}
}

func TestValidate(t *testing.T) {
	tech := tech()
	if err := tech.Validate(OP(0.3, 12)); err != nil {
		t.Errorf("legal point rejected: %v", err)
	}
	if err := tech.Validate(OP(0.1, 12)); err == nil {
		t.Error("Vth below range accepted")
	}
	if err := tech.Validate(OP(0.3, 15)); err == nil {
		t.Error("Tox above range accepted")
	}
	// Boundary points are legal.
	if err := tech.Validate(OP(tech.VthMin, 10)); err != nil {
		t.Errorf("lower boundary rejected: %v", err)
	}
	if err := tech.Validate(OP(tech.VthMax, 14)); err != nil {
		t.Errorf("upper boundary rejected: %v", err)
	}
}

func TestSubthresholdVdsDependence(t *testing.T) {
	tech := tech()
	op := OP(0.3, 12)
	// Vds=0 -> no current; increasing Vds increases current (DIBL + drain term).
	if i := tech.SubthresholdCurrent(NMOS, tech.WMin, op, 0); i != 0 {
		t.Errorf("Isub(Vds=0) = %v, want 0", i)
	}
	half := tech.SubthresholdCurrent(NMOS, tech.WMin, op, 0.5)
	full := tech.SubthresholdCurrent(NMOS, tech.WMin, op, 1.0)
	if half <= 0 || full <= half {
		t.Errorf("Isub not increasing with Vds: half=%v full=%v", half, full)
	}
}

func TestFO4Magnitude(t *testing.T) {
	tech := tech()
	// A 65nm-class FO4 at the fast corner should be tens of picoseconds.
	fo4 := tech.FO4(OP(0.20, 10))
	if fo4 < 5*units.Picosecond || fo4 > 80*units.Picosecond {
		t.Errorf("FO4 at fast corner = %v ps, want 5..80 ps", units.ToPS(fo4))
	}
	// The slow corner should be meaningfully slower but within ~5x.
	slow := tech.FO4(OP(0.50, 14))
	if slow <= fo4 || slow > 10*fo4 {
		t.Errorf("FO4 slow/fast = %v, want in (1, 10]", slow/fo4)
	}
}

func TestLeakageMagnitudes(t *testing.T) {
	tech := tech()
	// At the fast corner a 1um device leaks hundreds of nA subthreshold and
	// tens of nA gate; at the slow corner both must collapse by >10x.
	fast := OP(0.20, 10)
	slow := OP(0.50, 14)
	isubFast := tech.OffCurrent(NMOS, units.Micrometre, fast)
	isubSlow := tech.OffCurrent(NMOS, units.Micrometre, slow)
	if isubFast/isubSlow < 100 {
		t.Errorf("subthreshold dynamic range %v, want >= 100", isubFast/isubSlow)
	}
	igFast := tech.GateLeakCurrent(NMOS, units.Micrometre, fast, tech.Vdd)
	igSlow := tech.GateLeakCurrent(NMOS, units.Micrometre, slow, tech.Vdd)
	if igFast/igSlow < 10 {
		t.Errorf("gate-leak dynamic range %v, want >= 10", igFast/igSlow)
	}
	// Both mechanisms are the same order of magnitude at the fast corner —
	// the premise of the paper ("gate leakage can surpass subthreshold").
	if r := igFast / isubFast; r < 0.01 || r > 10 {
		t.Errorf("gate/subthreshold at fast corner = %v, want within [0.01,10]", r)
	}
}

func TestMOSTypeString(t *testing.T) {
	if NMOS.String() != "NMOS" || PMOS.String() != "PMOS" {
		t.Error("MOSType.String broken")
	}
}

func TestOperatingPointString(t *testing.T) {
	got := OP(0.3, 12).String()
	want := "(Vth=0.30V, Tox=12.0A)"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestDriveResistanceFinite(t *testing.T) {
	tech := tech()
	r := tech.DriveResistance(NMOS, tech.WMin, OP(0.3, 12))
	if math.IsInf(r, 0) || r <= 0 {
		t.Errorf("drive resistance = %v", r)
	}
	// Wider device -> proportionally lower resistance.
	r2 := tech.DriveResistance(NMOS, 2*tech.WMin, OP(0.3, 12))
	if !units.ApproxEqual(r/r2, 2, 1e-9, 0) {
		t.Errorf("R(W)/R(2W) = %v, want 2", r/r2)
	}
}

func TestScaled45nmProjection(t *testing.T) {
	t65 := Default65nm()
	t45 := Scaled45nm()
	if t45.Name == t65.Name {
		t.Error("projected node must be distinguishable")
	}
	// Shorter channels, thinner minimum oxide.
	if t45.LMin >= t65.LMin || t45.ToxMin >= t65.ToxMin {
		t.Error("45nm projection must shrink geometry")
	}
	// More subthreshold leakage per width at the same Vth, and much more
	// gate tunnelling at each node's own thin corner.
	op65 := OperatingPoint{Vth: 0.25, ToxM: t65.ToxMin}
	op45 := OperatingPoint{Vth: 0.25, ToxM: t45.ToxMin}
	if t45.OffCurrent(NMOS, units.Micrometre, op45) <= t65.OffCurrent(NMOS, units.Micrometre, op65) {
		t.Error("projected node should leak more subthreshold")
	}
	if t45.GateCurrentDensity(NMOS, op45, 1) <= t65.GateCurrentDensity(NMOS, op65, 1) {
		t.Error("projected node should tunnel more")
	}
	// Both nodes remain self-consistently calibrated.
	if err := t45.Validate(op45); err != nil {
		t.Errorf("projection rejects its own corner: %v", err)
	}
}

func TestOnCurrentDerated(t *testing.T) {
	tech := tech()
	op := OP(0.30, 12)
	full := tech.OnCurrent(NMOS, tech.WMin, op)
	derated := tech.OnCurrentDerated(NMOS, tech.WMin, op, CellReadDerate)
	if derated >= full {
		t.Error("derated drive must be below full drive")
	}
	// The derate bites harder at high Vth (the cell-read effect).
	hi := OP(0.50, 12)
	ratioLow := tech.OnCurrentDerated(NMOS, tech.WMin, op, CellReadDerate) / tech.OnCurrent(NMOS, tech.WMin, op)
	ratioHigh := tech.OnCurrentDerated(NMOS, tech.WMin, hi, CellReadDerate) / tech.OnCurrent(NMOS, tech.WMin, hi)
	if ratioHigh >= ratioLow {
		t.Errorf("derate should bite harder at high Vth: %v vs %v", ratioHigh, ratioLow)
	}
	// Overdrive floor keeps the current positive even past cutoff.
	if tech.OnCurrentDerated(NMOS, tech.WMin, OP(0.50, 12), 0.6) <= 0 {
		t.Error("overdrive floor violated")
	}
}
