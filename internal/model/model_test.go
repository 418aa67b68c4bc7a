package model

import (
	"math"
	"testing"

	"repro/internal/cachecfg"
	"repro/internal/charlib"
	"repro/internal/components"
	"repro/internal/device"
	"repro/internal/units"
)

func l1Cache(t *testing.T) *components.Cache {
	t.Helper()
	c, err := components.New(device.Default65nm(), cachecfg.L1(16*cachecfg.KB))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func cellSamples(t *testing.T) []charlib.Sample {
	t.Helper()
	c := l1Cache(t)
	s, err := charlib.Characterize(c.Part(components.PartCellArray), charlib.DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLeakageModelEval(t *testing.T) {
	m := LeakageModel{A0: 1, A1: 2, Alpha1: -1, A2: 3, Alpha2: -0.5}
	got := m.Eval(0, 0)
	if !units.ApproxEqual(got, 6, 1e-12, 0) {
		t.Errorf("Eval(0,0) = %v, want 6", got)
	}
	// Larger knobs -> smaller leakage.
	if m.Eval(0.5, 14) >= m.Eval(0.2, 10) {
		t.Error("leakage model must decrease in both knobs (negative exponents)")
	}
}

func TestDelayModelEval(t *testing.T) {
	m := DelayModel{K0: 1e-10, K1: 1e-11, K3: 2, K2: 1e-11}
	if m.Eval(0.5, 14) <= m.Eval(0.2, 10) {
		t.Error("delay model must increase in both knobs")
	}
}

func TestFitLeakageCellArray(t *testing.T) {
	samples := cellSamples(t)
	m, stats, err := FitLeakage(samples)
	if err != nil {
		t.Fatalf("FitLeakage: %v (stats %v)", err, stats)
	}
	if stats.R2 < 0.98 {
		t.Errorf("leakage fit R2 = %v, want >= 0.98 (model %v)", stats.R2, m)
	}
	// The paper's signs: amplitudes non-negative, exponents negative.
	if m.A1 < 0 || m.A2 < 0 || m.Alpha1 >= 0 || m.Alpha2 >= 0 {
		t.Errorf("fitted model has wrong structure: %v", m)
	}
	// The Vth exponent should be near the physical -1/(n*vT) ~ -24/V.
	if m.Alpha1 > -10 || m.Alpha1 < -50 {
		t.Errorf("Alpha1 = %v, want physically plausible [-50,-10]", m.Alpha1)
	}
	// The Tox exponent should be near -ln(10)/2.2A ~ -1.05/A.
	if m.Alpha2 > -0.4 || m.Alpha2 < -2 {
		t.Errorf("Alpha2 = %v, want ~-1/A", m.Alpha2)
	}
}

func TestFitLeakageRelativeAccuracy(t *testing.T) {
	samples := cellSamples(t)
	m, _, err := FitLeakage(samples)
	if err != nil {
		t.Fatal(err)
	}
	// Max relative error across the grid should be modest even where leakage
	// is small (the 1/y weighting's job).
	worst := 0.0
	for _, s := range samples {
		rel := math.Abs(m.Eval(s.Vth, s.ToxA)-s.LeakW) / s.LeakW
		if rel > worst {
			worst = rel
		}
	}
	if worst > 0.35 {
		t.Errorf("worst relative leakage-model error = %v, want <= 0.35", worst)
	}
}

func TestFitDelayCellArray(t *testing.T) {
	samples := cellSamples(t)
	m, stats, err := FitDelay(samples)
	if err != nil {
		t.Fatalf("FitDelay: %v (stats %v)", err, stats)
	}
	if stats.R2 < 0.98 {
		t.Errorf("delay fit R2 = %v, want >= 0.98 (model %v)", stats.R2, m)
	}
	if m.K1 < 0 || m.K2 < 0 || m.K3 <= 0 {
		t.Errorf("fitted delay model has wrong structure: %v", m)
	}
	// "exponential growth function with very small exponents": K3 of order a
	// few per volt, far below the leakage exponent's magnitude.
	if m.K3 > 15 {
		t.Errorf("K3 = %v, expected a small growth exponent", m.K3)
	}
}

func TestFitEnergyLinear(t *testing.T) {
	samples := cellSamples(t)
	m, stats, err := FitEnergy(samples)
	if err != nil {
		t.Fatal(err)
	}
	if stats.R2 < 0.95 {
		t.Errorf("energy fit R2 = %v", stats.R2)
	}
	if m.E1 <= 0 {
		t.Errorf("energy must grow with Tox, got slope %v", m.E1)
	}
}

func TestFitErrorsOnTinySampleSets(t *testing.T) {
	if _, _, err := FitLeakage(nil); err == nil {
		t.Error("empty sample set accepted")
	}
	if _, _, err := FitDelay(make([]charlib.Sample, 2)); err == nil {
		t.Error("two samples accepted for 4-parameter fit")
	}
}

func TestBuildCacheModelAllPartsFitWell(t *testing.T) {
	c := l1Cache(t)
	cm, err := Build(c, charlib.DefaultGrid(), 0.98)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for _, p := range components.Parts() {
		comp := cm.Comps[p]
		if comp.LeakStats.R2 < 0.98 || comp.DelayStats.R2 < 0.98 {
			t.Errorf("%v: leak R2 %.4f delay R2 %.4f", p, comp.LeakStats.R2, comp.DelayStats.R2)
		}
	}
}

func TestCacheModelTracksDirectEvaluation(t *testing.T) {
	c := l1Cache(t)
	cm, err := Build(c, charlib.DefaultGrid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Compare model vs direct circuit evaluation at off-grid points.
	points := []components.Assignment{
		components.Uniform(device.OP(0.275, 10.7)),
		components.Uniform(device.OP(0.425, 13.3)),
		components.Split(device.OP(0.475, 13.8), device.OP(0.225, 10.2)),
	}
	for _, a := range points {
		gotL := cm.LeakageW(a)
		wantL := c.Leakage(a).Total()
		if math.Abs(gotL-wantL)/wantL > 0.4 {
			t.Errorf("leakage model at %v: %v vs direct %v", a, gotL, wantL)
		}
		gotD := cm.AccessTimeS(a)
		wantD := c.AccessTime(a)
		if math.Abs(gotD-wantD)/wantD > 0.1 {
			t.Errorf("delay model at %v: %v vs direct %v", a, gotD, wantD)
		}
	}
}

func TestCacheModelAdditivity(t *testing.T) {
	c := l1Cache(t)
	cm, err := Build(c, charlib.CoarseGrid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a := components.Uniform(device.OP(0.3, 12))
	var wantLeak, wantDelay float64
	for i := range cm.Comps {
		wantLeak += cm.Comps[i].Leak.Eval(0.3, 12)
		wantDelay += cm.Comps[i].Delay.Eval(0.3, 12)
	}
	if !units.ApproxEqual(cm.LeakageW(a), wantLeak, 1e-12, 0) {
		t.Error("LeakageW must sum component models")
	}
	if !units.ApproxEqual(cm.AccessTimeS(a), wantDelay, 1e-12, 0) {
		t.Error("AccessTimeS must sum component models")
	}
}

func TestBuildFailsOnImpossibleR2(t *testing.T) {
	c := l1Cache(t)
	if _, err := Build(c, charlib.CoarseGrid(), 0.999999999); err == nil {
		t.Error("unattainable R2 gate should fail")
	}
}

// TestCheckR2 pins the one fit gate Build and every shared-model reader
// apply: 0 accepts any fit, and a refusal names the first component in
// part order, leakage before delay.
func TestCheckR2(t *testing.T) {
	var cm CacheModel
	for i := range cm.Comps {
		cm.Comps[i].Part = components.PartID(i)
		cm.Comps[i].LeakStats.R2, cm.Comps[i].DelayStats.R2 = 0.99, 0.99
	}
	cm.Comps[components.PartDecoder].DelayStats.R2 = 0.96
	cm.Comps[components.PartDataDrivers].LeakStats.R2 = -1
	if err := cm.CheckR2(0); err != nil {
		t.Errorf("gate 0 refused: %v", err)
	}
	want := "model: decoder delay fit R2 0.9600 < 0.9700"
	if err := cm.CheckR2(0.97); err == nil || err.Error() != want {
		t.Errorf("CheckR2(0.97) = %v, want %q", err, want)
	}
	want = "model: data-drivers leakage fit R2 -1.0000 < 0.9500"
	if err := cm.CheckR2(0.95); err == nil || err.Error() != want {
		t.Errorf("CheckR2(0.95) = %v, want %q", err, want)
	}
}

func TestModelStrings(t *testing.T) {
	lm := LeakageModel{A0: 1e-3, A1: 2, Alpha1: -20, A2: 3, Alpha2: -1}
	if lm.String() == "" {
		t.Error("empty LeakageModel string")
	}
	dm := DelayModel{K0: 1e-10, K1: 1e-11, K3: 2, K2: 1e-11}
	if dm.String() == "" {
		t.Error("empty DelayModel string")
	}
}
