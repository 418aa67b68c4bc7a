package opt

import (
	"context"
	"math"

	"repro/internal/components"
	"repro/internal/device"
	"repro/internal/sweep"
)

func partID(i int) components.PartID { return components.PartID(i) }

// minParallelOps is the grid size below which the scheme optimizers skip
// goroutine fan-out: tiny scans are cheaper than the scheduling they'd buy.
const minParallelOps = 256

// scanWorkers picks the shard fan-out for an n-candidate scan.
func scanWorkers(n int) int {
	if n < minParallelOps {
		return 1
	}
	return sweep.Workers(0)
}

// OptimizeSchemeIIICtx finds the least-leaky uniform assignment meeting
// the delay budget by scanning the candidate operating points. The scan is
// sharded across workers; shard-local bests are reduced in input order with
// the same strict inequality as the sequential scan, so the earliest
// feasible candidate still wins ties and the result is identical. On
// cancellation it returns ctx's error and an infeasible result.
func OptimizeSchemeIIICtx(ctx context.Context, ev Evaluator, ops []device.OperatingPoint, delayBudget float64) (Result, error) {
	shards := sweep.Shards(len(ops), scanWorkers(len(ops)))
	partials, err := sweep.MapCtx(ctx, len(shards), len(shards), func(ctx context.Context, si int) (Result, error) {
		best := infeasible(SchemeIII)
		for _, op := range ops[shards[si].Lo:shards[si].Hi] {
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
	})
	if err != nil {
		return infeasible(SchemeIII), err
	}
	return reduceResults(SchemeIII, partials), nil
}

// reduceResults folds shard-local optimization results in shard order,
// keeping the first strict improvement (sequential tie-breaking) and summing
// evaluation counts.
func reduceResults(s Scheme, partials []Result) Result {
	best := infeasible(s)
	for _, p := range partials {
		best.Evaluated += p.Evaluated
		if p.Feasible && p.LeakageW < best.LeakageW {
			ev := best.Evaluated
			best = p
			best.Evaluated = ev
		}
	}
	return best
}

// OptimizeSchemeIICtx finds the least-leaky (cell pair, periphery pair)
// assignment meeting the delay budget. The two groups decompose additively,
// so each group is reduced to its Pareto front first (the two front builds
// run concurrently, each sharding its candidate scan) and the fronts are
// combined in O(|cell front| * log |periph front|).
func OptimizeSchemeIICtx(ctx context.Context, ev ComponentEvaluator, ops []device.OperatingPoint, delayBudget float64) (Result, error) {
	fronts, err := sweep.MapCtx(ctx, 2, 2, func(ctx context.Context, which int) ([]ParetoPoint, error) {
		if which == 0 {
			return componentPareto(ev, int(components.PartCellArray), ops), nil
		}
		// Periphery group: three components sharing one pair.
		periphPts, perr := sweep.MapCtx(ctx, len(ops), scanWorkers(len(ops)), func(_ context.Context, i int) (ParetoPoint, error) {
			var d, l float64
			for _, p := range []components.PartID{components.PartDecoder, components.PartAddrDrivers, components.PartDataDrivers} {
				d += ev.PartDelayS(p, ops[i])
				l += ev.PartLeakageW(p, ops[i])
			}
			return ParetoPoint{DelayS: d, LeakageW: l, OP: ops[i]}, nil
		})
		if perr != nil {
			return nil, perr
		}
		return ParetoFront(periphPts), nil
	})
	if err != nil {
		return infeasible(SchemeII), err
	}
	cellFront, periphFront := fronts[0], fronts[1]

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

// SchemeIBins is the default delay quantization for the Scheme I dynamic
// program. Finer bins tighten the (conservative) quantization error.
const SchemeIBins = 4000

// OptimizeSchemeICtx finds independent per-component pairs minimizing total
// leakage under the delay budget. Components are reduced to Pareto fronts
// and combined with a multiple-choice-knapsack dynamic program over a
// quantized delay budget. Delays are rounded up to bin boundaries, so the
// returned assignment never violates the true budget (the DP may miss
// solutions within one bin width of the boundary). The context is checked
// between DP layers.
func OptimizeSchemeICtx(ctx context.Context, ev ComponentEvaluator, ops []device.OperatingPoint, delayBudget float64, bins int) (Result, error) {
	if bins <= 0 {
		bins = SchemeIBins
	}
	fronts, err := sweep.MapCtx(ctx, int(components.PartCount), int(components.PartCount),
		func(_ context.Context, i int) ([]ParetoPoint, error) { return componentPareto(ev, i, ops), nil })
	if err != nil {
		return infeasible(SchemeI), err
	}
	evaluated := int(components.PartCount) * len(ops)
	binW := delayBudget / float64(bins)
	if binW <= 0 {
		return infeasible(SchemeI), nil
	}

	const inf = math.MaxFloat64
	binCost := func(d float64) int { return int(math.Ceil(d/binW - 1e-12)) }

	// Forward DP: tables[k][b] is the minimum leakage of the first k
	// components with quantized delay <= b bins; tables[0] is all zeros.
	tables := make([][]float64, components.PartCount+1)
	tables[0] = make([]float64, bins+1)
	for k := 0; k < int(components.PartCount); k++ {
		if err := ctx.Err(); err != nil {
			return infeasible(SchemeI), err
		}
		cur := tables[k]
		nxt := make([]float64, bins+1)
		for i := range nxt {
			nxt[i] = inf
		}
		for _, pt := range fronts[k] {
			cost := binCost(pt.DelayS)
			if cost > bins {
				continue
			}
			for b := cost; b <= bins; b++ {
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
	for b := 0; b <= bins; b++ {
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

// ExhaustiveSchemeI enumerates the full cross product of candidate points —
// exponential, usable only on coarse grids; it exists to validate the DP.
func ExhaustiveSchemeI(ev ComponentEvaluator, ops []device.OperatingPoint, delayBudget float64) Result {
	best := infeasible(SchemeI)
	var asgn components.Assignment
	var recurse func(k int, delay, leak float64)
	recurse = func(k int, delay, leak float64) {
		if delay > delayBudget || leak >= best.LeakageW {
			return // prune: both metrics only grow
		}
		if k == int(components.PartCount) {
			best.LeakageW = leak
			best.DelayS = delay
			best.Assignment = asgn
			best.Feasible = true
			return
		}
		for _, op := range ops {
			asgn[k] = op
			best.Evaluated++
			recurse(k+1,
				delay+ev.PartDelayS(partID(k), op),
				leak+ev.PartLeakageW(partID(k), op))
		}
	}
	recurse(0, 0, 0)
	return best
}

// Optimize dispatches to the scheme-specific optimizer; it is OptimizeCtx
// without cancellation.
func Optimize(s Scheme, ev ComponentEvaluator, ops []device.OperatingPoint, delayBudget float64) Result {
	r, _ := OptimizeCtx(context.Background(), s, ev, ops, delayBudget)
	return r
}

// OptimizeCtx dispatches to the scheme-specific optimizer.
func OptimizeCtx(ctx context.Context, s Scheme, ev ComponentEvaluator, ops []device.OperatingPoint, delayBudget float64) (Result, error) {
	switch s {
	case SchemeI:
		return OptimizeSchemeICtx(ctx, ev, ops, delayBudget, 0)
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
