package sram

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/units"
)

func tech() *device.Technology { return device.Default65nm() }

func TestCellNetlistInventory(t *testing.T) {
	c := DefaultCell()
	n := c.Netlist(1)
	if got := n.CountTransistors(); got != 6 {
		t.Errorf("6T cell has %v transistors", got)
	}
}

func TestCellLeakagePaths(t *testing.T) {
	tc := tech()
	c := DefaultCell()
	op := device.OP(0.20, 10)
	l := c.Netlist(1).LeakagePower(tc, op)

	// Exactly three full-Vds subthreshold paths: PG(l), PD(r), PU(l).
	wantSub := (tc.OffCurrent(device.NMOS, c.WPass, op) +
		tc.OffCurrent(device.NMOS, c.WPullDown, op) +
		tc.OffCurrent(device.PMOS, c.WPullUp, op)) * tc.Vdd
	// StateOff elements add overlap gate leakage, so compare subthreshold only.
	if !units.ApproxEqual(l.SubthresholdW, wantSub, 1e-9, 0) {
		t.Errorf("cell subthreshold = %v, want %v", l.SubthresholdW, wantSub)
	}

	// Gate leakage comes from the two ON devices plus off-state overlap.
	minGate := (tc.GateLeakCurrent(device.NMOS, c.WPullDown, op, tc.Vdd) +
		tc.GateLeakCurrent(device.PMOS, c.WPullUp, op, tc.Vdd)) * tc.Vdd
	if l.GateW < minGate {
		t.Errorf("cell gate leakage %v below ON-device floor %v", l.GateW, minGate)
	}
}

func TestCellLeakageMagnitude(t *testing.T) {
	tc := tech()
	c := DefaultCell()
	// At the fast corner a 65nm cell leaks tens of nanowatts (I*V with
	// ~100 nA of total current); at the slow corner well under a nanowatt
	// of subthreshold.
	fast := c.Netlist(1).LeakagePower(tc, device.OP(0.20, 10))
	if fast.Total() < 20e-9 || fast.Total() > 500e-9 {
		t.Errorf("fast-corner cell leakage = %v W, want 20..500 nW", fast.Total())
	}
	slow := c.Netlist(1).LeakagePower(tc, device.OP(0.50, 14))
	if slow.Total() > fast.Total()/50 {
		t.Errorf("slow corner %v not << fast corner %v", slow.Total(), fast.Total())
	}
}

func TestGateVsSubthresholdCrossover(t *testing.T) {
	tc := tech()
	c := DefaultCell()
	// The paper's premise: at thin Tox and high Vth, gate leakage can
	// surpass subthreshold leakage.
	l := c.Netlist(1).LeakagePower(tc, device.OP(0.50, 10))
	if l.GateW <= l.SubthresholdW {
		t.Errorf("at (0.5V, 10A) gate %v should exceed subthreshold %v", l.GateW, l.SubthresholdW)
	}
	// And at thick Tox, low Vth, subthreshold dominates.
	l = c.Netlist(1).LeakagePower(tc, device.OP(0.20, 14))
	if l.SubthresholdW <= l.GateW {
		t.Errorf("at (0.2V, 14A) subthreshold %v should exceed gate %v", l.SubthresholdW, l.GateW)
	}
}

func TestReadCurrent(t *testing.T) {
	tc := tech()
	c := DefaultCell()
	fast := c.ReadCurrent(tc, device.OP(0.20, 10))
	slow := c.ReadCurrent(tc, device.OP(0.50, 14))
	if fast <= 0 || slow <= 0 {
		t.Fatal("read currents must be positive")
	}
	if slow >= fast {
		t.Error("read current must fall at the slow corner")
	}
	// The pass gate (80 nm) limits: 0.8 * 600uA/um * 0.08um = ~38 uA.
	if fast < 10e-6 || fast > 100e-6 {
		t.Errorf("fast read current = %v A, want 10..100 uA", fast)
	}
}

func TestCellGeometryScaling(t *testing.T) {
	tc := tech()
	c := DefaultCell()
	w10, h10 := c.Dims(tc, device.OP(0.3, 10))
	w14, h14 := c.Dims(tc, device.OP(0.3, 14))
	s := tc.ScaleFactor(device.OP(0.3, 14))
	if a14, a10 := w14*h14, w10*h10; !units.ApproxEqual(a14/a10, s*s, 1e-9, 0) {
		t.Errorf("area scale = %v, want %v", a14/a10, s*s)
	}
	if !units.ApproxEqual(w10, c.WidthM, 1e-12, 0) || !units.ApproxEqual(h10, c.HeightM, 1e-12, 0) {
		t.Error("dims at ToxMin must equal reference dims")
	}
}

func TestLoadCapsGrowWithTox(t *testing.T) {
	tc := tech()
	c := DefaultCell()
	f := func(a, b float64) bool {
		fa := math.Abs(math.Mod(a, 1))
		fb := math.Abs(math.Mod(b, 1))
		t1 := tc.ToxMin + fa*(tc.ToxMax-tc.ToxMin)
		t2 := tc.ToxMin + fb*(tc.ToxMax-tc.ToxMin)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		if t1 == t2 {
			return true
		}
		op1 := device.OperatingPoint{Vth: 0.3, ToxM: t1}
		op2 := device.OperatingPoint{Vth: 0.3, ToxM: t2}
		return c.BitlineCapPerCell(tc, op1) < c.BitlineCapPerCell(tc, op2) &&
			c.WordlineCapPerCell(tc, op1) < c.WordlineCapPerCell(tc, op2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("per-cell load caps must grow with Tox: %v", err)
	}
}

func TestBitlineCapMagnitude(t *testing.T) {
	tc := tech()
	c := DefaultCell()
	cb := c.BitlineCapPerCell(tc, device.OP(0.3, 10))
	// Junction (~0.06 fF) + wire (~0.1 fF) per cell: 0.05..0.5 fF plausible.
	if cb < 0.05e-15 || cb > 0.5e-15 {
		t.Errorf("bitline cap per cell = %v F, want 0.05..0.5 fF", cb)
	}
}

func TestSenseAmpAndPrechargeLeak(t *testing.T) {
	tc := tech()
	op := device.OP(0.25, 10)
	sa := SenseAmp(tc).LeakagePower(tc, op)
	if sa.Total() <= 0 {
		t.Error("sense amp must leak")
	}
	pre := Precharge(tc).LeakagePower(tc, op)
	if pre.GateW <= 0 {
		t.Error("precharge PMOS must show gate tunnelling")
	}
	if pre.SubthresholdW != 0 {
		t.Errorf("idle precharge has no off path, got %v", pre.SubthresholdW)
	}
	// Column mux with zero Vds must contribute ~nothing.
	mux := ColumnMux(tc).LeakagePower(tc, op)
	if mux.Total() != 0 {
		t.Errorf("idle column mux should not leak, got %v", mux.Total())
	}
}

func TestSenseDelayOrdersCorrectly(t *testing.T) {
	tc := tech()
	fast := SenseDelay(tc, device.OP(0.20, 10))
	slow := SenseDelay(tc, device.OP(0.50, 14))
	if fast <= 0 || slow <= fast {
		t.Errorf("sense delay fast=%v slow=%v", fast, slow)
	}
	// Should be tens of ps, well under the full access time.
	if fast > 200*units.Picosecond {
		t.Errorf("sense delay %v ps too large", units.ToPS(fast))
	}
}

func TestCellLeakageMonotoneVth(t *testing.T) {
	tc := tech()
	c := DefaultCell()
	vths := units.GridSteps(tc.VthMin, tc.VthMax, 0.025)
	prev := math.Inf(1)
	for _, v := range vths {
		l := c.Netlist(1).LeakagePower(tc, device.OperatingPoint{Vth: v, ToxM: tc.ToxMin}).Total()
		if l >= prev {
			t.Errorf("cell leakage not decreasing at Vth=%v", v)
		}
		prev = l
	}
}

func TestCellLeakageMonotoneTox(t *testing.T) {
	tc := tech()
	c := DefaultCell()
	toxs := units.GridSteps(10, 14, 0.25)
	prev := math.Inf(1)
	for _, x := range toxs {
		l := c.Netlist(1).LeakagePower(tc, device.OP(0.35, x)).Total()
		if l >= prev {
			t.Errorf("cell leakage not decreasing at Tox=%vA", x)
		}
		prev = l
	}
}
