package opt

import (
	"context"
	"math"

	"repro/internal/components"
	"repro/internal/device"
)

// The three single-cache searches as they were before the prepared search
// replaced them, kept verbatim as FuzzSearch's references: an ordered scan
// for Scheme III, and for Schemes I and II the fronts rebuilt on every
// call. They share componentPareto, ParetoFront, BestUnderBudget,
// SchemeIBins and approxEq with the search they check.

// referenceSearch maps each scheme to its reference.
var referenceSearch = map[Scheme]func(context.Context, ComponentEvaluator, []device.OperatingPoint, float64) (Result, error){
	SchemeI:  referenceSchemeI,
	SchemeII: referenceSchemeII,
	SchemeIII: func(ctx context.Context, ev ComponentEvaluator, ops []device.OperatingPoint, b float64) (Result, error) {
		return referenceSchemeIII(ctx, ev, ops, b)
	},
}

// referenceSchemeIII finds the least-leaky uniform assignment meeting
// the delay budget with one ordered scan of the candidate operating points;
// the strict inequality keeps the earliest feasible candidate on ties. On
// cancellation it returns ctx's error and an infeasible result.
func referenceSchemeIII(ctx context.Context, ev Evaluator, ops []device.OperatingPoint, delayBudget float64) (Result, error) {
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

// referenceSchemeII finds the least-leaky (cell pair, periphery pair)
// assignment meeting the delay budget. The two groups decompose additively,
// so each group is reduced to its Pareto front first (the cell front, then
// the periphery front) and the fronts are combined in
// O(|cell front| * log |periph front|).
func referenceSchemeII(ctx context.Context, ev ComponentEvaluator, ops []device.OperatingPoint, delayBudget float64) (Result, error) {
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

// referenceSchemeI finds independent per-component pairs minimizing total
// leakage under the delay budget. Components are reduced to Pareto fronts
// and combined with a multiple-choice-knapsack dynamic program over a
// quantized delay budget. Delays are rounded up to bin boundaries, so the
// returned assignment never violates the true budget (the DP may miss
// solutions within one bin width of the boundary). The context is checked
// between DP layers.
func referenceSchemeI(ctx context.Context, ev ComponentEvaluator, ops []device.OperatingPoint, delayBudget float64) (Result, error) {
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
