package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestThermalVoltage(t *testing.T) {
	got := ThermalVoltage(300)
	if !ApproxEqual(got, 0.02585, 1e-3, 0) {
		t.Errorf("ThermalVoltage(300K) = %v, want ~0.02585 V", got)
	}
	got = ThermalVoltage(358)
	if !ApproxEqual(got, 0.03085, 1e-3, 0) {
		t.Errorf("ThermalVoltage(358K) = %v, want ~0.03085 V", got)
	}
}

func TestThermalVoltageMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		ta := 250 + math.Mod(math.Abs(a), 200) // 250..450 K
		tb := 250 + math.Mod(math.Abs(b), 200)
		if ta == tb {
			return true
		}
		lo, hi := math.Min(ta, tb), math.Max(ta, tb)
		return ThermalVoltage(lo) < ThermalVoltage(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOxideCapacitance(t *testing.T) {
	// 10 A of SiO2: Cox = 3.9 * 8.854e-12 / 1e-9 = 3.45e-2 F/m^2.
	got := OxideCapacitancePerArea(FromAngstrom(10))
	if !ApproxEqual(got, 3.453e-2, 1e-3, 0) {
		t.Errorf("Cox(10A) = %v F/m^2, want ~3.45e-2", got)
	}
	// Thicker oxide -> smaller capacitance.
	if OxideCapacitancePerArea(FromAngstrom(14)) >= got {
		t.Error("Cox must decrease with Tox")
	}
}

func TestUnitRoundTrips(t *testing.T) {
	cases := []struct {
		to, from func(float64) float64
		name     string
	}{
		{ToPS, FromPS, "ps"},
		{ToMW, func(mw float64) float64 { return mw * Milliwatt }, "mW"},
		{ToPJ, func(pj float64) float64 { return pj * Picojoule }, "pJ"},
		{ToAngstrom, FromAngstrom, "angstrom"},
	}
	for _, c := range cases {
		for _, v := range []float64{0, 1, 1e-12, 3.7e5, -2.5} {
			if got := c.from(c.to(v)); !ApproxEqual(got, v, 1e-12, 1e-300) {
				t.Errorf("%s round trip of %v = %v", c.name, v, got)
			}
		}
	}
}

func TestFormatSI(t *testing.T) {
	cases := []struct {
		v    float64
		unit string
		want string
	}{
		{0, "W", "0W"},
		{1.3e-3, "W", "1.3mW"},
		{2.5e-12, "J", "2.5pJ"},
		{4.2e3, "Hz", "4.2kHz"},
		{1, "V", "1V"},
	}
	for _, c := range cases {
		if got := FormatSI(c.v, c.unit); got != c.want {
			t.Errorf("FormatSI(%v,%q) = %q, want %q", c.v, c.unit, got, c.want)
		}
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !ApproxEqual(got[i], want[i], 1e-12, 1e-15) {
			t.Errorf("Linspace[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if got[len(got)-1] != 1 {
		t.Error("Linspace must end exactly at hi")
	}
}

func TestLinspacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Linspace(0,1,1) should panic")
		}
	}()
	Linspace(0, 1, 1)
}

func TestGridSteps(t *testing.T) {
	got := GridSteps(10, 14, 0.5)
	if len(got) != 9 {
		t.Fatalf("GridSteps(10,14,0.5) has %d points, want 9: %v", len(got), got)
	}
	if got[0] != 10 || got[len(got)-1] != 14 {
		t.Errorf("endpoints = %v, %v", got[0], got[len(got)-1])
	}
	// Non-dividing step still terminates at hi.
	got = GridSteps(0.2, 0.5, 0.07)
	if got[len(got)-1] != 0.5 {
		t.Errorf("last = %v, want 0.5", got[len(got)-1])
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("grid not strictly increasing at %d: %v", i, got)
		}
	}
}

func TestGridStepsSinglePoint(t *testing.T) {
	got := GridSteps(1, 1, 0.5)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("GridSteps(1,1,0.5) = %v, want [1]", got)
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1.0, 1.0000001, 1e-6, 0) {
		t.Error("values within rel tolerance should compare equal")
	}
	if ApproxEqual(1.0, 1.1, 1e-6, 0) {
		t.Error("values outside tolerance should not compare equal")
	}
	if !ApproxEqual(0, 1e-300, 1e-6, 1e-12) {
		t.Error("near-zero values should use absolute tolerance")
	}
}
