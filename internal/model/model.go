// Package model implements the analytical forms of Section 3 of the paper
// and fits them to characterization data:
//
//	P_total(Vth, Tox) = A0 + A1*e^{a1*Vth} + A2*e^{a2*Tox}
//	T_d(Vth, Tox)     = k0 + k1*e^{k3*Vth} + k2*Tox
//
// (leakage exponential in both knobs; delay linear in Tox and weakly
// exponential in Vth). The same forms hold for every cache component, so a
// whole cache is modelled by summing fitted per-component models — exactly
// the additive structure the paper's optimization problems assume.
package model

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/charlib"
	"repro/internal/components"
	"repro/internal/device"
	"repro/internal/fit"
)

// LeakageModel is P(V,T) = A0 + A1*e^{Alpha1*V} + A2*e^{Alpha2*T}, with V in
// volts, T in angstroms, P in watts. Alpha1 and Alpha2 are negative.
type LeakageModel struct {
	A0, A1, Alpha1, A2, Alpha2 float64
}

// Eval returns the modelled leakage power (W).
func (m LeakageModel) Eval(vth, toxA float64) float64 {
	return m.A0 + m.A1*math.Exp(m.Alpha1*vth) + m.A2*math.Exp(m.Alpha2*toxA)
}

func (m LeakageModel) String() string {
	return fmt.Sprintf("P(V,T) = %.3g + %.3g*e^(%.3g*V) + %.3g*e^(%.3g*T) W",
		m.A0, m.A1, m.Alpha1, m.A2, m.Alpha2)
}

// DelayModel is D(V,T) = K0 + K1*e^{K3*V} + K2*T, with V in volts, T in
// angstroms, D in seconds. K3 is a small positive exponent; K2 is positive.
type DelayModel struct {
	K0, K1, K3, K2 float64
}

// Eval returns the modelled delay (s).
func (m DelayModel) Eval(vth, toxA float64) float64 {
	return m.K0 + m.K1*math.Exp(m.K3*vth) + m.K2*toxA
}

func (m DelayModel) String() string {
	return fmt.Sprintf("D(V,T) = %.3g + %.3g*e^(%.3g*V) + %.3g*T s",
		m.K0, m.K1, m.K3, m.K2)
}

// EnergyModel is E(T) = E0 + E1*T: dynamic energy is set by capacitance,
// which grows linearly with Tox through the geometry, and is nearly
// independent of Vth.
type EnergyModel struct {
	E0, E1 float64
}

// Eval returns the modelled dynamic energy per access (J).
func (m EnergyModel) Eval(toxA float64) float64 { return m.E0 + m.E1*toxA }

// FitLeakage fits the paper's leakage form to samples by seeding the
// exponents from marginal slices and refining with Levenberg–Marquardt using
// relative (1/y) weighting, since leakage spans decades.
func FitLeakage(samples []charlib.Sample) (LeakageModel, fit.Stats, error) {
	if len(samples) < 6 {
		return LeakageModel{}, fit.Stats{}, fmt.Errorf("model: need >= 6 samples, got %d", len(samples))
	}
	vMin, vMax, tMin, tMax := extremes(samples)

	// Seed Alpha1 from the Vth marginal at the thickest oxide, where the
	// gate term is negligible.
	a1 := slopeLog(samples, func(s charlib.Sample) (float64, float64, bool) {
		return s.Vth, s.SubW, approx(s.ToxA, tMax)
	}, vMin, vMax)
	if a1 >= 0 || math.IsNaN(a1) {
		a1 = -20
	}
	// Seed Alpha2 from the Tox marginal at the highest threshold, where the
	// subthreshold term is negligible.
	a2 := slopeLog(samples, func(s charlib.Sample) (float64, float64, bool) {
		return s.ToxA, s.GateW, approx(s.Vth, vMax)
	}, tMin, tMax)
	if a2 >= 0 || math.IsNaN(a2) {
		a2 = -1
	}

	// Linear solve for the amplitudes given the seeded exponents.
	rows := make([][]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		rows[i] = []float64{1, math.Exp(a1 * s.Vth), math.Exp(a2 * s.ToxA)}
		ys[i] = s.LeakW
	}
	amp, _, err := fit.LinearRegression(rows, ys)
	if err != nil {
		return LeakageModel{}, fit.Stats{}, err
	}
	p0 := []float64{math.Max(amp[0], 0), math.Max(amp[1], 1e-12), a1, math.Max(amp[2], 1e-12), a2}

	xs := make([][]float64, len(samples))
	weights := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = []float64{s.Vth, s.ToxA}
		weights[i] = 1 / math.Max(s.LeakW, 1e-30)
	}
	mdl := func(p, x []float64) float64 {
		return p[0] + p[1]*math.Exp(p[2]*x[0]) + p[3]*math.Exp(p[4]*x[1])
	}
	p, stats, err := fit.LevenbergMarquardt(mdl, xs, ys, p0, fit.LMOptions{
		MaxIterations: 400,
		Weights:       weights,
		Lower:         []float64{0, 0, -80, 0, -8},
		Upper:         []float64{math.Inf(1), math.Inf(1), -0.5, math.Inf(1), -0.05},
	})
	// ErrNoConverge still returns the best parameters found; the R2 gate
	// (CheckR2) is the arbiter of fit quality, not the iteration budget.
	if err != nil && !errors.Is(err, fit.ErrNoConverge) {
		return LeakageModel{}, stats, err
	}
	return LeakageModel{A0: p[0], A1: p[1], Alpha1: p[2], A2: p[3], Alpha2: p[4]}, stats, nil
}

// FitDelay fits the paper's delay form.
func FitDelay(samples []charlib.Sample) (DelayModel, fit.Stats, error) {
	if len(samples) < 5 {
		return DelayModel{}, fit.Stats{}, fmt.Errorf("model: need >= 5 samples, got %d", len(samples))
	}
	// Seed K3 with a small growth exponent and solve the rest linearly.
	k3 := 2.5
	rows := make([][]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		rows[i] = []float64{1, math.Exp(k3 * s.Vth), s.ToxA}
		ys[i] = s.DelayS
	}
	amp, _, err := fit.LinearRegression(rows, ys)
	if err != nil {
		return DelayModel{}, fit.Stats{}, err
	}
	p0 := []float64{amp[0], math.Max(amp[1], 1e-15), k3, math.Max(amp[2], 1e-15)}

	xs := make([][]float64, len(samples))
	for i, s := range samples {
		xs[i] = []float64{s.Vth, s.ToxA}
	}
	mdl := func(p, x []float64) float64 {
		return p[0] + p[1]*math.Exp(p[2]*x[0]) + p[3]*x[1]
	}
	p, stats, err := fit.LevenbergMarquardt(mdl, xs, ys, p0, fit.LMOptions{
		MaxIterations: 400,
		Lower:         []float64{math.Inf(-1), 0, 0.1, 0},
		Upper:         []float64{math.Inf(1), math.Inf(1), 30, math.Inf(1)},
	})
	if err != nil && !errors.Is(err, fit.ErrNoConverge) {
		return DelayModel{}, stats, err
	}
	return DelayModel{K0: p[0], K1: p[1], K3: p[2], K2: p[3]}, stats, nil
}

// FitEnergy fits the linear energy model (least squares on Tox).
func FitEnergy(samples []charlib.Sample) (EnergyModel, fit.Stats, error) {
	xs := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.ToxA
		ys[i] = s.EnergyJ
	}
	e0, e1, stats, err := fit.Linear(xs, ys)
	if err != nil {
		return EnergyModel{}, stats, err
	}
	return EnergyModel{E0: e0, E1: e1}, stats, nil
}

// ComponentModel bundles the three fitted models of one cache component.
type ComponentModel struct {
	Part components.PartID

	Leak      LeakageModel
	LeakStats fit.Stats

	Delay      DelayModel
	DelayStats fit.Stats

	Energy      EnergyModel
	EnergyStats fit.Stats
}

// CacheModel is the fitted analytical model of a whole cache: the sum of its
// four component models. It is the object the paper's optimizers minimize
// over, far cheaper to evaluate than the transistor-level netlists.
type CacheModel struct {
	Name  string
	Comps [components.PartCount]ComponentModel
}

// Build characterizes every component of the cache on the grid and fits the
// paper's model forms. It fails if any fit falls below minR2 (CheckR2;
// pass 0 to accept any fit).
func Build(c *components.Cache, g charlib.Grid, minR2 float64) (*CacheModel, error) {
	all, err := charlib.CharacterizeCache(c, g)
	if err != nil {
		return nil, err
	}
	cm := &CacheModel{Name: c.Cfg.String()}
	for _, p := range components.Parts() {
		samples := all[p]
		lm, ls, err := FitLeakage(samples)
		if err != nil {
			return nil, fmt.Errorf("model: %v leakage fit: %w", p, err)
		}
		dm, ds, err := FitDelay(samples)
		if err != nil {
			return nil, fmt.Errorf("model: %v delay fit: %w", p, err)
		}
		em, es, err := FitEnergy(samples)
		if err != nil {
			return nil, fmt.Errorf("model: %v energy fit: %w", p, err)
		}
		cm.Comps[p] = ComponentModel{
			Part: p,
			Leak: lm, LeakStats: ls,
			Delay: dm, DelayStats: ds,
			Energy: em, EnergyStats: es,
		}
	}
	if err := cm.CheckR2(minR2); err != nil {
		return nil, err
	}
	return cm, nil
}

// CheckR2 is the fit-quality gate: it reports the first component whose
// leakage or delay fit has R2 below minR2 (0 accepts any fit).
func (cm *CacheModel) CheckR2(minR2 float64) error {
	if minR2 <= 0 {
		return nil
	}
	for _, c := range cm.Comps {
		if c.LeakStats.R2 < minR2 {
			return fmt.Errorf("model: %v leakage fit R2 %.4f < %.4f", c.Part, c.LeakStats.R2, minR2)
		}
		if c.DelayStats.R2 < minR2 {
			return fmt.Errorf("model: %v delay fit R2 %.4f < %.4f", c.Part, c.DelayStats.R2, minR2)
		}
	}
	return nil
}

// LeakageW returns the modelled total leakage (W) under an assignment.
func (cm *CacheModel) LeakageW(a components.Assignment) float64 {
	var sum float64
	for i := range cm.Comps {
		op := a[i]
		sum += cm.Comps[i].Leak.Eval(op.Vth, op.ToxAngstrom())
	}
	return sum
}

// AccessTimeS returns the modelled access time (s) under an assignment.
func (cm *CacheModel) AccessTimeS(a components.Assignment) float64 {
	var sum float64
	for i := range cm.Comps {
		op := a[i]
		sum += cm.Comps[i].Delay.Eval(op.Vth, op.ToxAngstrom())
	}
	return sum
}

// DynamicEnergyJ returns the modelled per-access dynamic energy (J).
func (cm *CacheModel) DynamicEnergyJ(a components.Assignment) float64 {
	var sum float64
	for i := range cm.Comps {
		sum += cm.Comps[i].Energy.Eval(a[i].ToxAngstrom())
	}
	return sum
}

// PartLeakageW returns one component's modelled leakage, enabling the
// decomposition-based optimizers (opt.ComponentEvaluator).
func (cm *CacheModel) PartLeakageW(p components.PartID, op device.OperatingPoint) float64 {
	return cm.Comps[p].Leak.Eval(op.Vth, op.ToxAngstrom())
}

// PartDelayS returns one component's modelled delay.
func (cm *CacheModel) PartDelayS(p components.PartID, op device.OperatingPoint) float64 {
	return cm.Comps[p].Delay.Eval(op.Vth, op.ToxAngstrom())
}

// PartDynamicEnergyJ returns one component's modelled dynamic energy.
func (cm *CacheModel) PartDynamicEnergyJ(p components.PartID, op device.OperatingPoint) float64 {
	return cm.Comps[p].Energy.Eval(op.ToxAngstrom())
}

// --- helpers ---------------------------------------------------------------

func extremes(samples []charlib.Sample) (vMin, vMax, tMin, tMax float64) {
	vMin, vMax = math.Inf(1), math.Inf(-1)
	tMin, tMax = math.Inf(1), math.Inf(-1)
	for _, s := range samples {
		vMin = math.Min(vMin, s.Vth)
		vMax = math.Max(vMax, s.Vth)
		tMin = math.Min(tMin, s.ToxA)
		tMax = math.Max(tMax, s.ToxA)
	}
	return
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// slopeLog estimates d(ln y)/dx between the extreme x values of the
// filtered subset.
func slopeLog(samples []charlib.Sample, pick func(charlib.Sample) (x, y float64, ok bool), xLo, xHi float64) float64 {
	var yLo, yHi float64
	var haveLo, haveHi bool
	for _, s := range samples {
		x, y, ok := pick(s)
		if !ok || y <= 0 {
			continue
		}
		if approx(x, xLo) {
			yLo, haveLo = y, true
		}
		if approx(x, xHi) {
			yHi, haveHi = y, true
		}
	}
	if !haveLo || !haveHi {
		return math.NaN()
	}
	return (math.Log(yHi) - math.Log(yLo)) / (xHi - xLo)
}
