package opt

import (
	"context"
	"math"

	"repro/internal/components"
	"repro/internal/device"
	"repro/internal/sweep"
)

func partID(i int) components.PartID { return components.PartID(i) }

// OptimizeSchemeIIICtx finds the least-leaky uniform assignment meeting
// the delay budget with one ordered scan of the candidate operating points;
// the strict inequality keeps the earliest feasible candidate on ties. On
// cancellation it returns ctx's error and an infeasible result.
func OptimizeSchemeIIICtx(ctx context.Context, ev Evaluator, ops []device.OperatingPoint, delayBudget float64) (Result, error) {
	best := infeasible(SchemeIII)
	if err := ctx.Err(); err != nil {
		return best, err
	}
	for _, op := range ops {
		a := components.Uniform(op)
		best.Evaluated++
		if d := ev.AccessTimeS(a); d <= delayBudget {
			if l := ev.LeakageW(a); l < best.LeakageW {
				best.Assignment = a
				best.LeakageW = l
				best.DelayS = d
				best.Feasible = true
			}
		}
	}
	return best, nil
}

// OptimizeSchemeIICtx finds the least-leaky (cell pair, periphery pair)
// assignment meeting the delay budget. The two groups decompose additively,
// so each group is reduced to its Pareto front first (the cell front, then
// the periphery front) and the fronts are combined in
// O(|cell front| * log |periph front|).
func OptimizeSchemeIICtx(ctx context.Context, ev ComponentEvaluator, ops []device.OperatingPoint, delayBudget float64) (Result, error) {
	if err := ctx.Err(); err != nil {
		return infeasible(SchemeII), err
	}
	cellFront := componentPareto(ev, []components.PartID{components.PartCellArray}, ops)
	periphFront := componentPareto(ev, periphParts, ops)

	best := infeasible(SchemeII)
	best.Evaluated = len(ops) * 2
	for _, cell := range cellFront {
		rem := delayBudget - cell.DelayS
		if rem < 0 {
			continue
		}
		peri, ok := BestUnderBudget(periphFront, rem)
		if !ok {
			continue
		}
		if total := cell.LeakageW + peri.LeakageW; total < best.LeakageW {
			best.Assignment = components.Split(cell.OP, peri.OP)
			best.LeakageW = total
			best.DelayS = cell.DelayS + peri.DelayS
			best.Feasible = true
		}
	}
	return best, nil
}

// SchemeIBins is the delay quantization of the Scheme I dynamic program.
// Finer bins tighten the (conservative) quantization error.
const SchemeIBins = 4000

// OptimizeSchemeICtx finds independent per-component pairs minimizing total
// leakage under the delay budget. Components are reduced to Pareto fronts
// and combined with a multiple-choice-knapsack dynamic program over a
// quantized delay budget. Delays are rounded up to bin boundaries, so the
// returned assignment never violates the true budget (the DP may miss
// solutions within one bin width of the boundary). The context is checked
// between DP layers.
func OptimizeSchemeICtx(ctx context.Context, ev ComponentEvaluator, ops []device.OperatingPoint, delayBudget float64) (Result, error) {
	if err := ctx.Err(); err != nil {
		return infeasible(SchemeI), err
	}
	var fronts [components.PartCount][]ParetoPoint
	for k, p := range components.Parts() {
		fronts[k] = componentPareto(ev, []components.PartID{p}, ops)
	}
	evaluated := int(components.PartCount) * len(ops)
	binW := delayBudget / SchemeIBins
	if binW <= 0 {
		return infeasible(SchemeI), nil
	}

	const inf = math.MaxFloat64
	binCost := func(d float64) int { return int(math.Ceil(d/binW - 1e-12)) }

	// Forward DP: tables[k][b] is the minimum leakage of the first k
	// components with quantized delay <= b bins; tables[0] is all zeros.
	tables := make([][]float64, components.PartCount+1)
	tables[0] = make([]float64, SchemeIBins+1)
	for k := 0; k < int(components.PartCount); k++ {
		if err := ctx.Err(); err != nil {
			return infeasible(SchemeI), err
		}
		cur := tables[k]
		nxt := make([]float64, SchemeIBins+1)
		for i := range nxt {
			nxt[i] = inf
		}
		for _, pt := range fronts[k] {
			cost := binCost(pt.DelayS)
			if cost > SchemeIBins {
				continue
			}
			for b := cost; b <= SchemeIBins; b++ {
				if cur[b-cost] == inf {
					continue
				}
				if cand := cur[b-cost] + pt.LeakageW; cand < nxt[b] {
					nxt[b] = cand
				}
			}
		}
		tables[k+1] = nxt
	}

	final := tables[components.PartCount]
	bestBin, bestLeak := -1, inf
	for b := 0; b <= SchemeIBins; b++ {
		if final[b] < bestLeak {
			bestLeak = final[b]
			bestBin = b
		}
	}
	if bestBin < 0 {
		r := infeasible(SchemeI)
		r.Evaluated = evaluated
		return r, nil
	}

	// Backtrack through the tables to recover the per-component choices.
	var asgn components.Assignment
	b := bestBin
	for k := int(components.PartCount) - 1; k >= 0; k-- {
		found := false
		for _, pt := range fronts[k] {
			cost := binCost(pt.DelayS)
			if cost > b || tables[k][b-cost] == inf {
				continue
			}
			if approxEq(tables[k][b-cost]+pt.LeakageW, tables[k+1][b]) {
				asgn[k] = pt.OP
				b -= cost
				found = true
				break
			}
		}
		if !found {
			r := infeasible(SchemeI)
			r.Evaluated = evaluated
			return r, nil
		}
	}

	var trueDelay float64
	for i := range asgn {
		trueDelay += ev.PartDelayS(partID(i), asgn[i])
	}
	return Result{
		Scheme:     SchemeI,
		Assignment: asgn,
		LeakageW:   ev.LeakageW(asgn),
		DelayS:     trueDelay,
		Feasible:   true,
		Evaluated:  evaluated,
	}, nil
}

func approxEq(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// OptimizeCtx dispatches to the scheme-specific optimizer.
func OptimizeCtx(ctx context.Context, s Scheme, ev ComponentEvaluator, ops []device.OperatingPoint, delayBudget float64) (Result, error) {
	switch s {
	case SchemeI:
		return OptimizeSchemeICtx(ctx, ev, ops, delayBudget)
	case SchemeII:
		return OptimizeSchemeIICtx(ctx, ev, ops, delayBudget)
	default:
		return OptimizeSchemeIIICtx(ctx, ev, ops, delayBudget)
	}
}

// FeasibleDelayRange returns the minimum and maximum achievable access times
// over uniform assignments — the span of delay budgets worth sweeping.
func FeasibleDelayRange(ev Evaluator, ops []device.OperatingPoint) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, op := range ops {
		d := ev.AccessTimeS(components.Uniform(op))
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
	}
	return lo, hi
}

// FrontierCtx sweeps delay budgets and returns one optimization result per
// budget — the leakage-vs-delay trade-off curve of the scheme. Budgets are
// independent, so each runs on its own worker; results come back in budget
// order.
func FrontierCtx(ctx context.Context, s Scheme, ev ComponentEvaluator, ops []device.OperatingPoint, budgets []float64) ([]Result, error) {
	return sweep.MapCtx(ctx, len(budgets), 0, func(ctx context.Context, i int) (Result, error) {
		return OptimizeCtx(ctx, s, ev, ops, budgets[i])
	})
}
