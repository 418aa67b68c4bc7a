package circuit

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/units"
)

func tech() *device.Technology { return device.Default65nm() }

func TestInverterLeakageStates(t *testing.T) {
	tc := tech()
	op := device.OP(0.25, 11)

	// With input pinned low, only the NMOS leaks subthreshold and only the
	// PMOS leaks gate current.
	inv := Inverter("inv", tc.WMin, 0)
	l := inv.LeakagePower(tc, op)
	if l.SubthresholdW <= 0 || l.GateW <= 0 {
		t.Fatalf("inverter leakage should be positive: %+v", l)
	}
	wantSub := tc.OffCurrent(device.NMOS, tc.WMin, op)*tc.Vdd +
		0 // PMOS is on, no subthreshold
	// The off NMOS also has overlap gate leakage; subtract to compare.
	if !units.ApproxEqual(l.SubthresholdW, wantSub, 1e-9, 0) {
		t.Errorf("subthreshold = %v, want %v", l.SubthresholdW, wantSub)
	}
}

func TestInverterProbabilityWeighting(t *testing.T) {
	tc := tech()
	op := device.OP(0.3, 12)
	low := Inverter("l", tc.WMin, 0).LeakagePower(tc, op)
	high := Inverter("h", tc.WMin, 1).LeakagePower(tc, op)
	half := Inverter("m", tc.WMin, 0.5).LeakagePower(tc, op)
	wantSub := (low.SubthresholdW + high.SubthresholdW) / 2
	wantGate := (low.GateW + high.GateW) / 2
	if !units.ApproxEqual(half.SubthresholdW, wantSub, 1e-9, 0) ||
		!units.ApproxEqual(half.GateW, wantGate, 1e-9, 0) {
		t.Errorf("p=0.5 leakage %+v, want average of extremes (%v, %v)", half, wantSub, wantGate)
	}
}

func TestInverterLeakageAsymmetry(t *testing.T) {
	tc := tech()
	op := device.OP(0.3, 12)
	low := Inverter("l", tc.WMin, 0).LeakagePower(tc, op)
	high := Inverter("h", tc.WMin, 1).LeakagePower(tc, op)
	// Input high: the wide PMOS (BetaP*wn) leaks subthreshold at PNRatio.
	// Input low: the narrow NMOS leaks. With BetaP=2 and PNRatio=0.5 these
	// happen to match; check both are positive and finite instead of equal.
	for _, l := range []Leakage{low, high} {
		if l.SubthresholdW <= 0 || math.IsInf(l.SubthresholdW, 0) {
			t.Errorf("bad subthreshold leakage: %+v", l)
		}
	}
}

func TestNANDStackEffect(t *testing.T) {
	tc := tech()
	op := device.OP(0.25, 11)
	// A never-selected NAND2 (pAllHigh=0) should leak much less subthreshold
	// than two isolated off NMOS of the same stack width, thanks to the
	// stack factor.
	nand := NAND("nand2", 2, tc.WMin, 0)
	l := nand.LeakagePower(tc, op)
	isolated := tc.OffCurrent(device.NMOS, 2*tc.WMin, op) * tc.Vdd
	if l.SubthresholdW >= isolated {
		t.Errorf("stack effect missing: nand sub %v >= isolated %v", l.SubthresholdW, isolated)
	}
	ratio := l.SubthresholdW / isolated
	if !units.ApproxEqual(ratio, StackFactor, 0.05, 0) {
		t.Errorf("stack attenuation = %v, want ~%v", ratio, StackFactor)
	}
}

func TestNANDSelectedGateLeak(t *testing.T) {
	tc := tech()
	op := device.OP(0.25, 10)
	sel := NAND("sel", 3, tc.WMin, 1).LeakagePower(tc, op)
	unsel := NAND("unsel", 3, tc.WMin, 0).LeakagePower(tc, op)
	// Selected NAND has all NMOS conducting: gate leakage dominates and
	// exceeds the unselected gate leakage.
	if sel.GateW <= unsel.GateW {
		t.Errorf("selected NAND gate leak %v <= unselected %v", sel.GateW, unsel.GateW)
	}
}

func TestNANDPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NAND(k=1) should panic")
		}
	}()
	NAND("bad", 1, 1e-6, 0)
}

func TestNetlistHierarchy(t *testing.T) {
	tc := tech()
	op := device.OP(0.3, 12)
	leaf := Inverter("leaf", tc.WMin, 0.5)
	parent := &Netlist{Name: "parent"}
	parent.AddChild(leaf, 128)
	single := leaf.LeakagePower(tc, op)
	total := parent.LeakagePower(tc, op)
	if !units.ApproxEqual(total.Total(), 128*single.Total(), 1e-9, 0) {
		t.Errorf("hierarchical leakage %v, want 128x leaf %v", total.Total(), single.Total())
	}
	if got := parent.CountTransistors(); got != 128*leaf.CountTransistors() {
		t.Errorf("transistor count %v", got)
	}
}

func TestLeakageMonotoneInKnobs(t *testing.T) {
	tc := tech()
	nl := Inverter("inv", tc.WMin, 0.5)
	f := func(a, b float64) bool {
		fa := math.Abs(math.Mod(a, 1))
		fb := math.Abs(math.Mod(b, 1))
		v1 := tc.VthMin + fa*(tc.VthMax-tc.VthMin)
		v2 := tc.VthMin + fb*(tc.VthMax-tc.VthMin)
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		if v1 == v2 {
			return true
		}
		l1 := nl.LeakagePower(tc, device.OperatingPoint{Vth: v1, ToxM: tc.ToxMin}).Total()
		l2 := nl.LeakagePower(tc, device.OperatingPoint{Vth: v2, ToxM: tc.ToxMin}).Total()
		return l1 > l2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("total leakage not decreasing in Vth: %v", err)
	}
}

func TestGateLeakVanishesAtThickOxide(t *testing.T) {
	tc := tech()
	inv := Inverter("inv", tc.WMin, 0.5)
	thin := inv.LeakagePower(tc, device.OP(0.3, 10))
	thick := inv.LeakagePower(tc, device.OP(0.3, 14))
	if thick.GateW >= thin.GateW/10 {
		t.Errorf("gate leakage should collapse with thick oxide: thin %v thick %v", thin.GateW, thick.GateW)
	}
}

func TestWireRC(t *testing.T) {
	tc := tech()
	w := Wire{LengthM: 100 * units.Micrometre}
	r, c := w.R(tc), w.C(tc)
	if r <= 0 || c <= 0 {
		t.Fatalf("wire R=%v C=%v", r, c)
	}
	// 100um of mid-level wire: ~18 ohm, ~20 fF with default constants.
	if !units.ApproxEqual(r, 18, 1e-6, 0) || !units.ApproxEqual(c, 20e-15, 1e-6, 0) {
		t.Errorf("wire R=%v C=%v, want 18 ohm, 20 fF", r, c)
	}
}

func TestOptimalChainBasic(t *testing.T) {
	tc := tech()
	op := device.OP(0.25, 11)
	cin := tc.GateCap(tc.WMin, op)
	res := OptimalChain(tc, op, cin, 256*cin)
	// F=256 -> ~4 stages of effort 4.
	if res.Stages < 3 || res.Stages > 5 {
		t.Errorf("stages = %d, want 3..5 for F=256", res.Stages)
	}
	if res.Delay <= 0 {
		t.Error("chain delay must be positive")
	}
	if res.TotalWidthM <= 0 || res.EnergyPerSwitch <= 0 {
		t.Errorf("chain accounting: %+v", res)
	}
}

func TestOptimalChainDegenerate(t *testing.T) {
	tc := tech()
	op := device.OP(0.25, 11)
	cin := tc.GateCap(tc.WMin, op)
	res := OptimalChain(tc, op, cin, cin/10) // load smaller than input cap
	if res.Stages != 1 {
		t.Errorf("degenerate chain stages = %d, want 1", res.Stages)
	}
}

func TestOptimalChainPanicsOnZeroCin(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("OptimalChain(cIn=0) should panic")
		}
	}()
	OptimalChain(tech(), device.OP(0.3, 12), 0, 1e-15)
}

func TestOptimalChainDelayMonotoneInLoad(t *testing.T) {
	tc := tech()
	op := device.OP(0.3, 12)
	cin := tc.GateCap(tc.WMin, op)
	prev := 0.0
	for _, f := range []float64{2, 8, 32, 128, 512, 2048} {
		d := OptimalChain(tc, op, cin, f*cin).Delay
		if d <= prev {
			t.Errorf("chain delay not increasing with load: F=%v d=%v prev=%v", f, d, prev)
		}
		prev = d
	}
}

func TestOptimalChainSlowerAtSlowCorner(t *testing.T) {
	tc := tech()
	cin := tc.GateCap(tc.WMin, device.OP(0.2, 10))
	fast := OptimalChain(tc, device.OP(0.2, 10), cin, 100*cin).Delay
	slow := OptimalChain(tc, device.OP(0.5, 14), cin, 100*cin).Delay
	if slow <= fast {
		t.Errorf("slow corner chain %v <= fast corner %v", slow, fast)
	}
}

func TestGateDelayPositiveAndOrdered(t *testing.T) {
	tc := tech()
	op := device.OP(0.3, 12)
	small := GateDelay(tc, op, tc.WMin, 1e-15)
	big := GateDelay(tc, op, 10*tc.WMin, 1e-15)
	if small <= 0 || big <= 0 {
		t.Fatal("gate delays must be positive")
	}
	if big >= small {
		t.Error("wider driver must be faster into the same load")
	}
}

func TestSwitchingEnergy(t *testing.T) {
	tc := tech()
	full := SwitchingEnergy(tc, 1e-15, 1)
	if !units.ApproxEqual(full, 1e-15, 1e-9, 0) { // C*Vdd^2 with Vdd=1
		t.Errorf("full swing energy = %v", full)
	}
	partial := SwitchingEnergy(tc, 1e-15, 0.1)
	if !units.ApproxEqual(partial, 1e-16, 1e-9, 0) {
		t.Errorf("partial swing energy = %v", partial)
	}
}

func TestLeakageAdd(t *testing.T) {
	var l Leakage
	l.Add(Leakage{SubthresholdW: 1, GateW: 2}, 3)
	if l.SubthresholdW != 3 || l.GateW != 6 {
		t.Errorf("Add broken: %+v", l)
	}
	if l.Total() != 9 {
		t.Errorf("Total = %v", l.Total())
	}
}

func TestAddElementDefaults(t *testing.T) {
	n := &Netlist{}
	n.AddElement(Element{Kind: device.NMOS, WidthM: 1e-7, State: StateOff, VFrac: 1})
	if n.Elements[0].Count != 1 || n.Elements[0].Stack != 1 {
		t.Errorf("defaults not applied: %+v", n.Elements[0])
	}
}
