package model

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cachecfg"
	"repro/internal/charlib"
	"repro/internal/components"
	"repro/internal/device"
)

// PartDynamicEnergyJ returns one component's modelled dynamic energy.
func (cm *CacheModel) PartDynamicEnergyJ(p components.PartID, op device.OperatingPoint) float64 {
	return cm.Comps[p].Energy.Eval(op.ToxAngstrom())
}

// Property-based tests on the fitted models: the paper's optimization
// correctness relies on the fitted surfaces preserving the physical
// monotonicities of the underlying circuit model.

var (
	propOnce  sync.Once
	propModel *CacheModel
)

func fittedModel(t *testing.T) *CacheModel {
	t.Helper()
	propOnce.Do(func() {
		c, err := components.New(device.Default65nm(), cachecfg.L1(16*cachecfg.KB))
		if err != nil {
			t.Fatal(err)
		}
		propModel, err = Build(c, charlib.DefaultGrid(), 0.97)
		if err != nil {
			t.Fatal(err)
		}
	})
	if propModel == nil {
		t.Fatal("model build failed earlier")
	}
	return propModel
}

// clampKnobs maps arbitrary floats into the legal knob box.
func clampKnobs(a, b float64) (vth, toxA float64) {
	fa := math.Abs(math.Mod(a, 1))
	fb := math.Abs(math.Mod(b, 1))
	if math.IsNaN(fa) {
		fa = 0.5
	}
	if math.IsNaN(fb) {
		fb = 0.5
	}
	return 0.20 + 0.30*fa, 10 + 4*fb
}

func TestFittedLeakageMonotoneProperty(t *testing.T) {
	m := fittedModel(t)
	f := func(a, b, c float64) bool {
		v1, tox := clampKnobs(a, c)
		v2, _ := clampKnobs(b, c)
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		if v1 == v2 {
			return true
		}
		for i := range m.Comps {
			if m.Comps[i].Leak.Eval(v1, tox) < m.Comps[i].Leak.Eval(v2, tox) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("fitted leakage not monotone in Vth: %v", err)
	}
}

func TestFittedLeakageMonotoneInToxProperty(t *testing.T) {
	m := fittedModel(t)
	f := func(a, b, c float64) bool {
		v, t1 := clampKnobs(c, a)
		_, t2 := clampKnobs(c, b)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		if t1 == t2 {
			return true
		}
		for i := range m.Comps {
			if m.Comps[i].Leak.Eval(v, t1) < m.Comps[i].Leak.Eval(v, t2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("fitted leakage not monotone in Tox: %v", err)
	}
}

func TestFittedDelayMonotoneProperty(t *testing.T) {
	m := fittedModel(t)
	f := func(a, b, c float64) bool {
		v1, tox := clampKnobs(a, c)
		v2, _ := clampKnobs(b, c)
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		if v1 == v2 {
			return true
		}
		for i := range m.Comps {
			if m.Comps[i].Delay.Eval(v2, tox) < m.Comps[i].Delay.Eval(v1, tox) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("fitted delay not monotone in Vth: %v", err)
	}
}

func TestFittedSurfacesPositiveProperty(t *testing.T) {
	m := fittedModel(t)
	f := func(a, b float64) bool {
		v, tox := clampKnobs(a, b)
		asgn := components.Uniform(device.OP(v, tox))
		return m.LeakageW(asgn) > 0 && m.AccessTimeS(asgn) > 0 && m.DynamicEnergyJ(asgn) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("fitted surfaces must stay positive on the knob box: %v", err)
	}
}

func TestPartEvaluatorsAgreeWithSums(t *testing.T) {
	m := fittedModel(t)
	asgn := components.Split(device.OP(0.45, 13.5), device.OP(0.25, 10.5))
	var leak, delay, energy float64
	for _, p := range components.Parts() {
		leak += m.PartLeakageW(p, asgn[p])
		delay += m.PartDelayS(p, asgn[p])
		energy += m.PartDynamicEnergyJ(p, asgn[p])
	}
	if math.Abs(leak-m.LeakageW(asgn)) > 1e-12*math.Abs(leak) {
		t.Error("PartLeakageW does not sum to LeakageW")
	}
	if math.Abs(delay-m.AccessTimeS(asgn)) > 1e-12*math.Abs(delay) {
		t.Error("PartDelayS does not sum to AccessTimeS")
	}
	if math.Abs(energy-m.DynamicEnergyJ(asgn)) > 1e-12*math.Abs(energy) {
		t.Error("PartDynamicEnergyJ does not sum to DynamicEnergyJ")
	}
}
