package opt

import (
	"context"
	"math"

	"repro/internal/components"
	"repro/internal/device"
)

// jointRounds bounds OptimizeJointCtx's coordinate-descent rounds.
const jointRounds = 8

// OptimizeJointCtx minimizes combined L1+L2 leakage under an AMAT budget
// with BOTH levels' assignments free — an extension of the paper's
// Section 5 experiments, which pin one level while optimizing the other.
//
// The search alternates coordinate descent between the levels: holding one
// level fixed, the other level's problem reduces to a single-cache
// delay-budget optimization (the AMAT constraint is linear in each level's
// access time), which the scheme optimizers solve exactly. Each sweep can
// only lower the objective, so the iteration converges; jointRounds bounds it.
//
// The initial point matters for a non-convex alternation: the search starts
// from the fastest corner (always feasible if anything is) and lets the
// levels take turns relaxing toward conservative knobs. The context is
// checked once per descent round and inside each level's grid search.
func OptimizeJointCtx(ctx context.Context, t *TwoLevel, scheme Scheme, ops []device.OperatingPoint, amatBudget float64) (TwoLevelResult, error) {
	fastest := fastestOP(ops)
	a1 := components.Uniform(fastest)
	a2 := components.Uniform(fastest)
	if t.AMAT(a1, a2) > amatBudget {
		return TwoLevelResult{}, nil
	}

	best := math.Inf(1)
	for round := 0; round < jointRounds; round++ {
		improved := false

		// Optimize L2 with L1 pinned.
		r, err := t.OptimizeL2Ctx(ctx, scheme, a1, ops, amatBudget)
		if err != nil {
			return TwoLevelResult{}, err
		}
		if r.Feasible && r.LeakageW < best-1e-15 {
			a2 = r.L2Assignment
			best = r.LeakageW
			improved = true
		}
		// Optimize L1 with L2 pinned.
		r, err = t.OptimizeL1Ctx(ctx, scheme, a2, ops, amatBudget)
		if err != nil {
			return TwoLevelResult{}, err
		}
		if r.Feasible && r.LeakageW < best-1e-15 {
			a1 = r.L1Assignment
			best = r.LeakageW
			improved = true
		}
		if !improved {
			break
		}
	}
	return t.result(a1, a2), nil
}

// fastestOP returns the candidate with minimum Vth then minimum Tox.
func fastestOP(ops []device.OperatingPoint) device.OperatingPoint {
	best := ops[0]
	for _, op := range ops[1:] {
		if op.Vth < best.Vth || (op.Vth == best.Vth && op.ToxM < best.ToxM) {
			best = op
		}
	}
	return best
}
