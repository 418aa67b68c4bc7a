package amat

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/units"
)

func sys() System {
	return System{
		L1: LevelStats{Name: "L1", AccessTimeS: 600e-12, LocalMissRate: 0.05,
			DynamicEnergyJ: 20e-12, LeakageW: 10e-3},
		L2: LevelStats{Name: "L2", AccessTimeS: 1500e-12, LocalMissRate: 0.20,
			DynamicEnergyJ: 150e-12, LeakageW: 50e-3},
		Mem: mem.DefaultDDR(),
	}
}

func TestAMATFormula(t *testing.T) {
	s := sys()
	want := 600e-12 + 0.05*(1500e-12+0.20*50e-9)
	if got := s.AMAT(); !units.ApproxEqual(got, want, 1e-12, 0) {
		t.Errorf("AMAT = %v, want %v", got, want)
	}
	// ~1175 ps: in Figure 2's x-axis regime.
	if ps := units.ToPS(s.AMAT()); ps < 800 || ps > 2500 {
		t.Errorf("AMAT = %v ps, outside the paper's regime", ps)
	}
}

func TestValidate(t *testing.T) {
	s := sys()
	if err := s.Validate(); err != nil {
		t.Errorf("valid system rejected: %v", err)
	}
	bad := s
	bad.L1.LocalMissRate = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("miss rate > 1 accepted")
	}
	bad = s
	bad.L2.AccessTimeS = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero access time accepted")
	}
	bad = s
	bad.L1.LeakageW = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative leakage accepted")
	}
}

func TestDynamicEnergy(t *testing.T) {
	s := sys()
	want := 20e-12 + 0.05*(150e-12+0.20*2e-9)
	if got := s.DynamicEnergyJ(); !units.ApproxEqual(got, want, 1e-12, 0) {
		t.Errorf("dynamic energy = %v, want %v", got, want)
	}
}

func TestTotalEnergyBreakdownConsistency(t *testing.T) {
	s := sys()
	// Dynamic energy plus L1, L2 and DDR standby power over the AMAT window.
	amat := 600e-12 + 0.05*(1500e-12+0.20*50e-9)
	want := 20e-12 + 0.05*(150e-12+0.20*2e-9) + (10e-3+50e-3+50e-3)*amat
	if got := s.TotalEnergyJ(); !units.ApproxEqual(got, want, 1e-12, 0) {
		t.Errorf("total energy = %v, want %v", got, want)
	}
	// Total energy should land in Figure 2's tens-to-hundreds of pJ regime.
	if pj := units.ToPJ(s.TotalEnergyJ()); pj < 20 || pj > 1000 {
		t.Errorf("total energy = %v pJ, outside the paper's regime", pj)
	}
}

func TestLeakageTradeoffVisible(t *testing.T) {
	// Raising L2 leakage must raise total energy linearly via the AMAT window.
	s := sys()
	base := s.TotalEnergyJ()
	s.L2.LeakageW *= 2
	if s.TotalEnergyJ() <= base {
		t.Error("doubling L2 leakage must increase total energy")
	}
}

func TestFasterCacheReducesLeakageEnergyWindow(t *testing.T) {
	// Shortening AMAT shrinks the window leakage integrates over.
	s := sys()
	base := s.TotalEnergyJ()
	s.L1.AccessTimeS /= 2
	if s.TotalEnergyJ() >= base {
		t.Error("faster L1 must reduce total energy at fixed leakage")
	}
}

func TestAMATMonotonicityProperties(t *testing.T) {
	f := func(a, b float64) bool {
		m1 := math.Abs(math.Mod(a, 1))
		m2 := math.Abs(math.Mod(b, 1))
		if math.IsNaN(m1) || math.IsNaN(m2) {
			return true
		}
		s := sys()
		s.L1.LocalMissRate = m1
		s.L2.LocalMissRate = m2
		base := s.AMAT()
		s2 := s
		s2.L1.LocalMissRate = math.Min(1, m1+0.1)
		return s2.AMAT() >= base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("AMAT not monotone in L1 miss rate: %v", err)
	}
}

func TestPerfectL1MeansAMATIsHitTime(t *testing.T) {
	s := sys()
	s.L1.LocalMissRate = 0
	if got := s.AMAT(); got != s.L1.AccessTimeS {
		t.Errorf("AMAT with perfect L1 = %v, want hit time %v", got, s.L1.AccessTimeS)
	}
}
