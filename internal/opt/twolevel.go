package opt

import (
	"context"
	"fmt"
	"math"

	"repro/internal/amat"
	"repro/internal/components"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/sweep"
)

// CacheEvaluator extends ComponentEvaluator with dynamic energy — everything
// the system-level optimizations need from one cache.
type CacheEvaluator interface {
	ComponentEvaluator
	DynamicEnergyJ(a components.Assignment) float64
}

// DynamicEnergyJ lets Direct satisfy CacheEvaluator.
func (d Direct) DynamicEnergyJ(a components.Assignment) float64 {
	return d.Cache.DynamicEnergy(a)
}

// TwoLevel is a two-level cache system under optimization: fitted (or
// direct) evaluators for each level plus the architectural statistics of the
// chosen workload and sizes.
type TwoLevel struct {
	L1, L2 CacheEvaluator
	// M1, M2 are the local miss rates of the chosen (L1 size, L2 size) under
	// the workload (from sim.MissMatrix).
	M1, M2 float64
	Mem    mem.Spec
}

// Validate checks the architectural inputs.
func (t *TwoLevel) Validate() error {
	if t.L1 == nil || t.L2 == nil {
		return fmt.Errorf("opt: two-level system missing evaluators")
	}
	if t.M1 < 0 || t.M1 > 1 || t.M2 < 0 || t.M2 > 1 {
		return fmt.Errorf("opt: miss rates (%v, %v) outside [0,1]", t.M1, t.M2)
	}
	return t.Mem.Validate()
}

// System assembles the amat.System for a pair of assignments.
func (t *TwoLevel) System(a1, a2 components.Assignment) amat.System {
	return amat.System{
		L1: amat.LevelStats{
			Name:           "L1",
			AccessTimeS:    t.L1.AccessTimeS(a1),
			LocalMissRate:  t.M1,
			DynamicEnergyJ: t.L1.DynamicEnergyJ(a1),
			LeakageW:       t.L1.LeakageW(a1),
		},
		L2: amat.LevelStats{
			Name:           "L2",
			AccessTimeS:    t.L2.AccessTimeS(a2),
			LocalMissRate:  t.M2,
			DynamicEnergyJ: t.L2.DynamicEnergyJ(a2),
			LeakageW:       t.L2.LeakageW(a2),
		},
		Mem: t.Mem,
	}
}

// AMAT returns the system AMAT under the assignments.
func (t *TwoLevel) AMAT(a1, a2 components.Assignment) float64 {
	return t.System(a1, a2).AMAT()
}

// LeakageW returns combined L1+L2 leakage.
func (t *TwoLevel) LeakageW(a1, a2 components.Assignment) float64 {
	return t.L1.LeakageW(a1) + t.L2.LeakageW(a2)
}

// L2DelayBudget converts a system AMAT budget into an L2 access-time budget
// given a fixed L1 assignment: AMAT <= B  <=>  t2 <= (B - t1)/m1 - m2*tmem.
// It returns ok=false when the budget is unreachable even with a zero-delay
// L2 (the L1 alone or the memory term already exceeds it).
func (t *TwoLevel) L2DelayBudget(a1 components.Assignment, amatBudget float64) (float64, bool) {
	if t.M1 <= 0 {
		// No L1 misses: the L2's delay does not affect AMAT; any L2 works.
		return math.Inf(1), t.L1.AccessTimeS(a1) <= amatBudget
	}
	t1 := t.L1.AccessTimeS(a1)
	budget := (amatBudget-t1)/t.M1 - t.M2*t.Mem.LatencyS
	return budget, budget > 0
}

// L1DelayBudget converts a system AMAT budget into an L1 access-time budget
// given a fixed L2 assignment: t1 <= B - m1*(t2 + m2*tmem).
func (t *TwoLevel) L1DelayBudget(a2 components.Assignment, amatBudget float64) (float64, bool) {
	t2 := t.L2.AccessTimeS(a2)
	budget := amatBudget - t.M1*(t2+t.M2*t.Mem.LatencyS)
	return budget, budget > 0
}

// TwoLevelResult reports a two-level optimization outcome.
type TwoLevelResult struct {
	L1Assignment components.Assignment
	L2Assignment components.Assignment
	LeakageW     float64 // combined cache leakage (the paper's objective)
	AMATS        float64
	TotalEnergyJ float64
	Feasible     bool
}

func (r TwoLevelResult) String() string {
	if !r.Feasible {
		return "two-level: infeasible"
	}
	return fmt.Sprintf("two-level: leak=%.4gW amat=%.4gs energy=%.4gJ", r.LeakageW, r.AMATS, r.TotalEnergyJ)
}

// OptimizeL2Ctx finds the L2 assignment minimizing combined leakage under
// an AMAT budget with the L1 pinned to a1 (the paper's first two-level
// experiment uses the default pair for L1). scheme selects the granularity
// inside the L2: SchemeIII is the "one pair in L2" experiment; SchemeII is
// the "core cells vs periphery" split.
func (t *TwoLevel) OptimizeL2Ctx(ctx context.Context, scheme Scheme, a1 components.Assignment, ops []device.OperatingPoint, amatBudget float64) (TwoLevelResult, error) {
	delayBudget, ok := t.L2DelayBudget(a1, amatBudget)
	if !ok {
		return TwoLevelResult{Feasible: false}, nil
	}
	res, err := OptimizeCtx(ctx, scheme, t.L2, ops, delayBudget)
	if err != nil {
		return TwoLevelResult{Feasible: false}, err
	}
	if !res.Feasible {
		return TwoLevelResult{Feasible: false}, nil
	}
	sys := t.System(a1, res.Assignment)
	return TwoLevelResult{
		L1Assignment: a1,
		L2Assignment: res.Assignment,
		LeakageW:     t.LeakageW(a1, res.Assignment),
		AMATS:        sys.AMAT(),
		TotalEnergyJ: sys.TotalEnergyJ(),
		Feasible:     true,
	}, nil
}

// OptimizeL2FrontierCtx evaluates OptimizeL2Ctx at each AMAT budget, one
// budget per worker, returning results in budget order — the two-level
// analogue of FrontierCtx for trade-off curves over the system constraint.
func (t *TwoLevel) OptimizeL2FrontierCtx(ctx context.Context, scheme Scheme, a1 components.Assignment, ops []device.OperatingPoint, amatBudgets []float64) ([]TwoLevelResult, error) {
	return sweep.MapCtx(ctx, len(amatBudgets), 0, func(ctx context.Context, i int) (TwoLevelResult, error) {
		return t.OptimizeL2Ctx(ctx, scheme, a1, ops, amatBudgets[i])
	})
}

// OptimizeL1Ctx finds the L1 assignment minimizing combined leakage under
// an AMAT budget with the L2 pinned to a2 (the paper's L1 experiment: given
// a fixed L2, the key to minimizing total leakage is the L1).
func (t *TwoLevel) OptimizeL1Ctx(ctx context.Context, scheme Scheme, a2 components.Assignment, ops []device.OperatingPoint, amatBudget float64) (TwoLevelResult, error) {
	delayBudget, ok := t.L1DelayBudget(a2, amatBudget)
	if !ok {
		return TwoLevelResult{Feasible: false}, nil
	}
	res, err := OptimizeCtx(ctx, scheme, t.L1, ops, delayBudget)
	if err != nil {
		return TwoLevelResult{Feasible: false}, err
	}
	if !res.Feasible {
		return TwoLevelResult{Feasible: false}, nil
	}
	sys := t.System(res.Assignment, a2)
	return TwoLevelResult{
		L1Assignment: res.Assignment,
		L2Assignment: a2,
		LeakageW:     t.LeakageW(res.Assignment, a2),
		AMATS:        sys.AMAT(),
		TotalEnergyJ: sys.TotalEnergyJ(),
		Feasible:     true,
	}, nil
}
