package opt

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/components"
	"repro/internal/device"
)

// ParetoPoint is one (delay, leakage) trade-off point with the operating
// point that achieves it.
type ParetoPoint struct {
	DelayS   float64
	LeakageW float64
	OP       device.OperatingPoint
}

// ParetoFront reduces candidate points to the non-dominated set, sorted by
// increasing delay (and therefore decreasing leakage). A point dominates
// another when it is no slower and leaks no more, and is strictly better in
// at least one dimension.
func ParetoFront(points []ParetoPoint) []ParetoPoint {
	if len(points) == 0 {
		return nil
	}
	sorted := append([]ParetoPoint(nil), points...)
	// Stable, so among exact ties the front keeps the earliest candidate
	// in scan order, as every knob search promises.
	slices.SortStableFunc(sorted, func(a, b ParetoPoint) int {
		if a.DelayS != b.DelayS {
			return cmp.Compare(a.DelayS, b.DelayS)
		}
		return cmp.Compare(a.LeakageW, b.LeakageW)
	})
	out := sorted[:0]
	bestLeak := sorted[0].LeakageW + 1
	for _, p := range sorted {
		if p.LeakageW < bestLeak {
			out = append(out, p)
			bestLeak = p.LeakageW
		}
	}
	// Copy to detach from the shared backing array.
	return append([]ParetoPoint(nil), out...)
}

// periphParts is the Scheme II periphery group: the three components that
// share one pair.
var periphParts = []components.PartID{components.PartDecoder, components.PartAddrDrivers, components.PartDataDrivers}

// componentPareto builds the Pareto set of a component group driven by one
// shared pair, scanning the candidate operating points in order.
func componentPareto(ev ComponentEvaluator, parts []components.PartID, ops []device.OperatingPoint) []ParetoPoint {
	pts := make([]ParetoPoint, len(ops))
	for i, op := range ops {
		pts[i].OP = op
		for _, p := range parts {
			pts[i].DelayS += ev.PartDelayS(p, op)
			pts[i].LeakageW += ev.PartLeakageW(p, op)
		}
	}
	return ParetoFront(pts)
}

// BestUnderBudget returns the least-leaky point with delay <= budget, or
// false when none qualifies. Points must be a Pareto front (sorted by delay).
func BestUnderBudget(front []ParetoPoint, budget float64) (ParetoPoint, bool) {
	// The front is sorted by increasing delay with decreasing leakage, so
	// the best feasible point is the last one within budget.
	idx := sort.Search(len(front), func(i int) bool { return front[i].DelayS > budget })
	if idx == 0 {
		return ParetoPoint{}, false
	}
	return front[idx-1], true
}
