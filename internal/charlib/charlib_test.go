package charlib

import (
	"testing"

	"repro/internal/cachecfg"
	"repro/internal/components"
	"repro/internal/device"
)

func l1Cache(t *testing.T) *components.Cache {
	t.Helper()
	c, err := components.New(device.Default65nm(), cachecfg.L1(16*cachecfg.KB))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGridValidation(t *testing.T) {
	if err := DefaultGrid().Validate(); err != nil {
		t.Errorf("default grid invalid: %v", err)
	}
	if err := (Grid{}).Validate(); err == nil {
		t.Error("empty grid accepted")
	}
	bad := Grid{Vths: []float64{0.3, 0.2}, ToxAs: []float64{10}}
	if err := bad.Validate(); err == nil {
		t.Error("unsorted Vth grid accepted")
	}
	bad = Grid{Vths: []float64{0.3}, ToxAs: []float64{12, 10}}
	if err := bad.Validate(); err == nil {
		t.Error("unsorted Tox grid accepted")
	}
}

func TestGridPoints(t *testing.T) {
	g := DefaultGrid()
	if g.Points() != len(g.Vths)*len(g.ToxAs) {
		t.Error("Points mismatch")
	}
	if g.Points() < 35 {
		t.Errorf("default grid too small for fitting: %d points", g.Points())
	}
}

func TestOptimizationGridResolution(t *testing.T) {
	g := OptimizationGrid()
	// The paper: Vth 0.2..0.5, Tox 10..14 in small discrete steps.
	if g.Vths[0] != 0.20 || g.Vths[len(g.Vths)-1] != 0.50 {
		t.Errorf("Vth range %v..%v", g.Vths[0], g.Vths[len(g.Vths)-1])
	}
	if g.ToxAs[0] != 10 || g.ToxAs[len(g.ToxAs)-1] != 14 {
		t.Errorf("Tox range %v..%v", g.ToxAs[0], g.ToxAs[len(g.ToxAs)-1])
	}
	if len(g.Vths) < 50 {
		t.Errorf("optimization grid Vth resolution too coarse: %d", len(g.Vths))
	}
}

func TestCharacterizeShape(t *testing.T) {
	c := l1Cache(t)
	g := CoarseGrid()
	samples, err := Characterize(c.Part(components.PartCellArray), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != g.Points() {
		t.Fatalf("got %d samples, want %d", len(samples), g.Points())
	}
	for _, s := range samples {
		if s.LeakW <= 0 || s.DelayS <= 0 || s.EnergyJ <= 0 {
			t.Errorf("non-positive metric in %+v", s)
		}
		if s.SubW+s.GateW != s.LeakW {
			t.Errorf("leakage breakdown does not sum: %+v", s)
		}
	}
}

func TestCharacterizeRejectsBadGrid(t *testing.T) {
	c := l1Cache(t)
	if _, err := Characterize(c.Part(components.PartDecoder), Grid{}); err == nil {
		t.Error("bad grid accepted")
	}
}

func TestCharacterizeCacheAllParts(t *testing.T) {
	c := l1Cache(t)
	all, err := CharacterizeCache(c, CoarseGrid())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range components.Parts() {
		if len(all[p]) == 0 {
			t.Errorf("no samples for %v", p)
		}
	}
}

func TestSlices(t *testing.T) {
	c := l1Cache(t)
	samples, err := Characterize(c.Part(components.PartCellArray), DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1's headline observations, checked on raw characterization data:
	// fixing Vth low and sweeping Tox moves leakage a lot over a narrow delay
	// range; fixing Tox and sweeping Vth covers a wide delay range.
	var vthFixed, toxFixed []Sample
	for _, s := range samples {
		if s.Vth == 0.20 {
			vthFixed = append(vthFixed, s)
		}
		if s.ToxA == 10 {
			toxFixed = append(toxFixed, s)
		}
	}
	delaySpanVthFixed := span(vthFixed, func(s Sample) float64 { return s.DelayS })
	delaySpanToxFixed := span(toxFixed, func(s Sample) float64 { return s.DelayS })
	if delaySpanVthFixed >= delaySpanToxFixed {
		t.Errorf("delay span with Vth fixed (%v) should be narrower than with Tox fixed (%v)",
			delaySpanVthFixed, delaySpanToxFixed)
	}
}

func span(samples []Sample, f func(Sample) float64) float64 {
	lo, hi := f(samples[0]), f(samples[0])
	for _, s := range samples {
		v := f(s)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}
