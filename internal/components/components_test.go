package components

import (
	"math"
	"testing"

	"repro/internal/cachecfg"
	"repro/internal/device"
	"repro/internal/units"
)

func tech() *device.Technology { return device.Default65nm() }

func newL1(t *testing.T, size int) *Cache {
	t.Helper()
	c, err := New(tech(), cachecfg.L1(size))
	if err != nil {
		t.Fatalf("New L1(%d): %v", size, err)
	}
	return c
}

func newL2(t *testing.T, size int) *Cache {
	t.Helper()
	c, err := New(tech(), cachecfg.L2(size))
	if err != nil {
		t.Fatalf("New L2(%d): %v", size, err)
	}
	return c
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	if _, err := New(tech(), cachecfg.Config{SizeBytes: 100}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestPartNames(t *testing.T) {
	want := []string{"cell-array", "decoder", "addr-drivers", "data-drivers"}
	for i, p := range Parts() {
		if p.String() != want[i] {
			t.Errorf("part %d = %q, want %q", i, p.String(), want[i])
		}
	}
	if PartID(99).String() != "part(99)" {
		t.Error("out-of-range PartID should degrade gracefully")
	}
}

func TestAssignmentConstructors(t *testing.T) {
	op1 := device.OP(0.3, 12)
	op2 := device.OP(0.45, 14)
	u := Uniform(op1)
	for _, p := range Parts() {
		if u[p] != op1 {
			t.Errorf("Uniform: part %v = %v", p, u[p])
		}
	}
	s := Split(op2, op1)
	if s[PartCellArray] != op2 {
		t.Error("Split: cell array pair wrong")
	}
	for _, p := range []PartID{PartDecoder, PartAddrDrivers, PartDataDrivers} {
		if s[p] != op1 {
			t.Errorf("Split: periphery part %v = %v", p, s[p])
		}
	}
	if s.String() == "" {
		t.Error("Assignment.String empty")
	}
}

func TestCellArrayDominatesLeakage(t *testing.T) {
	// The paper: "the leakiest component ... is the core cell array".
	c := newL1(t, 16*cachecfg.KB)
	op := device.OP(0.25, 11)
	arrL := c.Part(PartCellArray).Leakage(op).Total()
	for _, p := range []PartID{PartDecoder, PartAddrDrivers, PartDataDrivers} {
		if l := c.Part(p).Leakage(op).Total(); l >= arrL {
			t.Errorf("%v leakage %v >= cell array %v", p, l, arrL)
		}
	}
}

func TestLeakageMagnitude16KB(t *testing.T) {
	c := newL1(t, 16*cachecfg.KB)
	// Fast corner: Figure 1's y-axis spans ~0-60 mW for a 16KB cache.
	fast := c.Leakage(Uniform(device.OP(0.20, 10))).Total()
	if fast < 5*units.Milliwatt || fast > 120*units.Milliwatt {
		t.Errorf("fast-corner 16KB leakage = %v mW, want 5..120", units.ToMW(fast))
	}
	slow := c.Leakage(Uniform(device.OP(0.50, 14))).Total()
	if slow >= fast/20 {
		t.Errorf("slow corner %v mW not << fast %v mW", units.ToMW(slow), units.ToMW(fast))
	}
}

func TestAccessTimeMagnitude16KB(t *testing.T) {
	c := newL1(t, 16*cachecfg.KB)
	fast := c.AccessTime(Uniform(device.OP(0.20, 10)))
	slow := c.AccessTime(Uniform(device.OP(0.50, 14)))
	// Figure 1 spans roughly 800-2200 ps; our analytic substrate should land
	// in the same regime (a few hundred ps to a few ns) with slow/fast ~ 2-4x.
	if fast < 200*units.Picosecond || fast > 1500*units.Picosecond {
		t.Errorf("fast access = %v ps, want 200..1500", units.ToPS(fast))
	}
	ratio := slow / fast
	if ratio < 1.8 || ratio > 6 {
		t.Errorf("slow/fast access ratio = %v, want 1.8..6", ratio)
	}
}

func TestAccessTimeIsSumOfParts(t *testing.T) {
	c := newL1(t, 16*cachecfg.KB)
	a := Uniform(device.OP(0.3, 12))
	var sum float64
	for i, p := range Parts() {
		sum += c.Part(p).Delay(a[i])
	}
	if !units.ApproxEqual(c.AccessTime(a), sum, 1e-12, 0) {
		t.Error("AccessTime must equal the sum of component delays")
	}
}

func TestLeakageIsSumOfParts(t *testing.T) {
	c := newL1(t, 16*cachecfg.KB)
	a := Uniform(device.OP(0.3, 12))
	var sum float64
	for i, p := range Parts() {
		sum += c.Part(p).Leakage(a[i]).Total()
	}
	if !units.ApproxEqual(c.Leakage(a).Total(), sum, 1e-12, 0) {
		t.Error("Leakage must equal the sum of component leakages")
	}
}

func TestMixedAssignmentDecomposes(t *testing.T) {
	// Setting the array conservative while keeping periphery fast must cut
	// leakage a lot while costing only the array's delay delta.
	c := newL1(t, 16*cachecfg.KB)
	fast := device.OP(0.20, 10)
	cons := device.OP(0.45, 13)
	uni := Uniform(fast)
	split := Split(cons, fast)

	lUni := c.Leakage(uni).Total()
	lSplit := c.Leakage(split).Total()
	if lSplit >= lUni/2 {
		t.Errorf("conservative array should at least halve leakage: %v vs %v", lSplit, lUni)
	}
	dUni := c.AccessTime(uni)
	dSplit := c.AccessTime(split)
	if dSplit <= dUni {
		t.Error("conservative array must slow the cache")
	}
}

func TestEachComponentMonotoneInVth(t *testing.T) {
	c := newL1(t, 16*cachecfg.KB)
	vths := units.GridSteps(0.20, 0.50, 0.05)
	for _, p := range Parts() {
		part := c.Part(p)
		prevLeak := math.Inf(1)
		prevDelay := 0.0
		for _, v := range vths {
			op := device.OP(v, 12)
			l := part.Leakage(op).Total()
			d := part.Delay(op)
			if l >= prevLeak {
				t.Errorf("%v: leakage not decreasing in Vth at %v", p, v)
			}
			if d <= prevDelay {
				t.Errorf("%v: delay not increasing in Vth at %v", p, v)
			}
			prevLeak, prevDelay = l, d
		}
	}
}

func TestEachComponentMonotoneInTox(t *testing.T) {
	c := newL1(t, 16*cachecfg.KB)
	toxs := units.GridSteps(10, 14, 0.5)
	for _, p := range Parts() {
		part := c.Part(p)
		prevLeak := math.Inf(1)
		prevDelay := 0.0
		for _, x := range toxs {
			op := device.OP(0.30, x)
			l := part.Leakage(op).Total()
			d := part.Delay(op)
			if l >= prevLeak {
				t.Errorf("%v: leakage not decreasing in Tox at %vA", p, x)
			}
			if d <= prevDelay {
				t.Errorf("%v: delay not increasing in Tox at %vA", p, x)
			}
			prevLeak, prevDelay = l, d
		}
	}
}

func TestL2BiggerSlowerLeakier(t *testing.T) {
	op := Uniform(device.OP(0.3, 12))
	sizes := cachecfg.L2Sizes()
	var prevLeak, prevTime float64
	for _, s := range sizes {
		c := newL2(t, s)
		l := c.Leakage(op).Total()
		d := c.AccessTime(op)
		if l <= prevLeak {
			t.Errorf("L2 %d: leakage %v not increasing with size", s, l)
		}
		if d <= prevTime {
			t.Errorf("L2 %d: access time %v not increasing with size", s, d)
		}
		prevLeak, prevTime = l, d
	}
}

func TestL2AccessTimeMagnitude(t *testing.T) {
	c := newL2(t, 512*cachecfg.KB)
	fast := c.AccessTime(Uniform(device.OP(0.20, 10)))
	// An L2 should be several times slower than an L1 but still nanoseconds.
	if fast < 400*units.Picosecond || fast > 5*units.Nanosecond {
		t.Errorf("512KB L2 fast access = %v ps", units.ToPS(fast))
	}
}

func TestDynamicEnergyMagnitude(t *testing.T) {
	c := newL1(t, 16*cachecfg.KB)
	e := c.DynamicEnergy(Uniform(device.OP(0.25, 11)))
	// L1 read at 65nm: a few to a few tens of pJ.
	if e < 1*units.Picojoule || e > 200*units.Picojoule {
		t.Errorf("L1 dynamic energy = %v pJ, want 1..200", units.ToPJ(e))
	}
	l2 := newL2(t, 512*cachecfg.KB)
	e2 := l2.DynamicEnergy(Uniform(device.OP(0.25, 11)))
	if e2 <= e {
		t.Errorf("L2 access energy %v should exceed L1 %v", units.ToPJ(e2), units.ToPJ(e))
	}
}

func TestAreaGrowsWithTox(t *testing.T) {
	c := newL1(t, 16*cachecfg.KB)
	thin := c.AreaM2(Uniform(device.OP(0.3, 10)))
	thick := c.AreaM2(Uniform(device.OP(0.3, 14)))
	s := tech().ScaleFactor(device.OP(0.3, 14))
	if !units.ApproxEqual(thick/thin, s*s, 1e-9, 0) {
		t.Errorf("area ratio = %v, want %v", thick/thin, s*s)
	}
}

func TestGateLeakCollapsesWithThickOxide(t *testing.T) {
	c := newL1(t, 16*cachecfg.KB)
	thin := c.Leakage(Uniform(device.OP(0.35, 10)))
	thick := c.Leakage(Uniform(device.OP(0.35, 14)))
	if thick.GateW >= thin.GateW/10 {
		t.Errorf("gate leakage should fall >10x from 10A to 14A: %v -> %v", thin.GateW, thick.GateW)
	}
	// Subthreshold is Tox-insensitive by construction (W/L scale together).
	if !units.ApproxEqual(thick.SubthresholdW, thin.SubthresholdW, 0.05, 0) {
		t.Errorf("subthreshold should be ~Tox-invariant: %v vs %v", thin.SubthresholdW, thick.SubthresholdW)
	}
}

func TestDelayNearLinearInTox(t *testing.T) {
	// Section 3: "the delay of the array is shown to be linear with Tox".
	// Check a linear fit over the Tox slice explains almost all variance.
	c := newL1(t, 16*cachecfg.KB)
	toxs := units.GridSteps(10, 14, 0.25)
	var xs, ys []float64
	for _, x := range toxs {
		xs = append(xs, x)
		ys = append(ys, units.ToPS(c.AccessTime(Uniform(device.OP(0.30, x)))))
	}
	r2 := linearR2(xs, ys)
	if r2 < 0.98 {
		t.Errorf("delay vs Tox linear fit R^2 = %v, want >= 0.98", r2)
	}
}

// linearR2 computes the R^2 of an ordinary least squares line fit.
func linearR2(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	b := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	a := (sy - b*sx) / n
	var ssRes, ssTot float64
	mean := sy / n
	for i := range xs {
		pred := a + b*xs[i]
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - mean) * (ys[i] - mean)
	}
	if ssTot == 0 {
		return 1
	}
	return 1 - ssRes/ssTot
}
