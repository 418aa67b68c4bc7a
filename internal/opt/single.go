package opt

import (
	"cmp"
	"context"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"

	"repro/internal/components"
	"repro/internal/device"
	"repro/internal/sweep"
)

func partID(i int) components.PartID { return components.PartID(i) }

// search is the prepared knob search over one (evaluator, ops) pair (see
// the package doc). Each scheme's tables are built under their own Once.
type search struct {
	ev  Evaluator
	ops []device.OperatingPoint

	partsOnce  sync.Once
	partFronts [components.PartCount][]ParetoPoint

	splitOnce              sync.Once
	cellFront, periphFront []ParetoPoint

	uniformOnce sync.Once
	uniform     []uniformEntry
}

// uniformEntry is one Scheme III candidate that can win the scan, in
// stable delay order: delayS is its own delay, and best is the least leaky
// candidate of the entries up to it, the earliest in scan order on ties.
type uniformEntry struct {
	delayS float64
	best   ParetoPoint
}

// registry maps an evaluator to its prepared search. Prepare is its one
// writer.
var registry sync.Map // Evaluator -> *search

// Prepare registers the prepared search of ev over ops: from then on every
// knob search of ev over this same ops slice (the same backing array and
// length) answers from one search, built on first use. A registration is
// never dropped, so callers register a bounded set of evaluators, as
// core.SharedDesign does with one per cache organization. An evaluator
// whose dynamic type is not comparable cannot be a key and is not
// registered.
func Prepare(ev Evaluator, ops []device.OperatingPoint) {
	if reflect.ValueOf(ev).Comparable() {
		registry.LoadOrStore(ev, &search{ev: ev, ops: ops})
	}
}

// searchFor returns ev's registered search when it covers ops, and
// otherwise a fresh search for the caller.
func searchFor(ev Evaluator, ops []device.OperatingPoint) *search {
	if reflect.ValueOf(ev).Comparable() {
		if v, ok := registry.Load(ev); ok {
			if s := v.(*search); len(s.ops) == len(ops) && (len(ops) == 0 || &s.ops[0] == &ops[0]) {
				return s
			}
		}
	}
	return &search{ev: ev, ops: ops}
}

// evaluated is a scheme's Result.Evaluated: one score per candidate and
// knob group (four components, cell and periphery, or the whole cache).
func (s *search) evaluated(scheme Scheme) int {
	switch scheme {
	case SchemeI:
		return int(components.PartCount) * len(s.ops)
	case SchemeII:
		return 2 * len(s.ops)
	}
	return len(s.ops)
}

// query answers one scheme at one delay budget; any scheme but I and II
// is Scheme III. A cancelled ctx is reported before any work, and a NaN
// budget, which no delay meets, is infeasible.
func (s *search) query(ctx context.Context, scheme Scheme, delayBudget float64) (Result, error) {
	if scheme != SchemeI && scheme != SchemeII {
		scheme = SchemeIII
	}
	if err := ctx.Err(); err != nil {
		return infeasible(scheme), err
	}
	if math.IsNaN(delayBudget) {
		r := infeasible(scheme)
		r.Evaluated = s.evaluated(scheme)
		return r, nil
	}
	switch scheme {
	case SchemeI:
		return s.schemeI(ctx, delayBudget)
	case SchemeII:
		return s.schemeII(delayBudget), nil
	}
	return s.schemeIII(delayBudget), nil
}

// schemeIII answers from the uniform candidates: the last one no slower
// than the budget carries the least leakage among all that meet it, the
// earliest in scan order on ties — the winner of an ordered scan that
// keeps a candidate only when its leakage is strictly below the best so
// far.
func (s *search) schemeIII(delayBudget float64) Result {
	s.uniformOnce.Do(s.buildUniform)
	r := infeasible(SchemeIII)
	r.Evaluated = s.evaluated(SchemeIII)
	k := sort.Search(len(s.uniform), func(i int) bool { return s.uniform[i].delayS > delayBudget })
	if k == 0 {
		return r
	}
	best := s.uniform[k-1].best
	r.Assignment = components.Uniform(best.OP)
	r.LeakageW = best.LeakageW
	r.DelayS = best.DelayS
	r.Feasible = true
	return r
}

// buildUniform scores every uniform candidate and leaves out those the
// scan can never keep: a NaN delay meets no budget, and a NaN or +Inf
// leakage is never below the best so far, which starts at +Inf.
func (s *search) buildUniform() {
	type candidate struct {
		ParetoPoint
		scan int
	}
	cands := make([]candidate, 0, len(s.ops))
	for i, op := range s.ops {
		a := components.Uniform(op)
		d, l := s.ev.AccessTimeS(a), s.ev.LeakageW(a)
		if math.IsNaN(d) || math.IsNaN(l) || math.IsInf(l, 1) {
			continue
		}
		cands = append(cands, candidate{ParetoPoint{DelayS: d, LeakageW: l, OP: op}, i})
	}
	slices.SortStableFunc(cands, func(a, b candidate) int { return cmp.Compare(a.DelayS, b.DelayS) })
	s.uniform = make([]uniformEntry, len(cands))
	w := 0
	for k, c := range cands {
		if c.LeakageW < cands[w].LeakageW || c.LeakageW == cands[w].LeakageW && c.scan < cands[w].scan {
			w = k
		}
		s.uniform[k].delayS = c.DelayS
		s.uniform[k].best = cands[w].ParetoPoint
	}
}

// schemeII combines the cell front with the periphery front, which
// decompose additively, in O(|cell front| * log |periph front|).
func (s *search) schemeII(delayBudget float64) Result {
	s.splitOnce.Do(func() {
		s.cellFront = componentPareto(s.ev, []components.PartID{components.PartCellArray}, s.ops)
		s.periphFront = componentPareto(s.ev, periphParts, s.ops)
	})
	best := infeasible(SchemeII)
	best.Evaluated = s.evaluated(SchemeII)
	for _, cell := range s.cellFront {
		rem := delayBudget - cell.DelayS
		if rem < 0 {
			continue
		}
		peri, ok := BestUnderBudget(s.periphFront, rem)
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
	return best
}

// schemeI runs the multiple-choice-knapsack dynamic program over the
// per-component fronts; the context is checked between DP layers.
func (s *search) schemeI(ctx context.Context, delayBudget float64) (Result, error) {
	s.partsOnce.Do(func() {
		for k, p := range components.Parts() {
			s.partFronts[k] = componentPareto(s.ev, []components.PartID{p}, s.ops)
		}
	})
	fronts := &s.partFronts
	r := infeasible(SchemeI)
	r.Evaluated = s.evaluated(SchemeI)
	binW := delayBudget / SchemeIBins
	if binW <= 0 {
		return r, nil
	}

	const inf = math.MaxFloat64
	// binCost is a delay's whole bins; ok is false for a delay that fits
	// no bin of the budget, NaN and a count past any int included.
	binCost := func(d float64) (int, bool) {
		c := math.Ceil(d/binW - 1e-12)
		if !(c <= SchemeIBins) {
			return 0, false
		}
		return int(c), true
	}

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
			cost, ok := binCost(pt.DelayS)
			if !ok {
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
		return r, nil
	}

	// Backtrack through the tables to recover the per-component choices.
	var asgn components.Assignment
	b := bestBin
	for k := int(components.PartCount) - 1; k >= 0; k-- {
		found := false
		for _, pt := range fronts[k] {
			cost, ok := binCost(pt.DelayS)
			if !ok || cost > b || tables[k][b-cost] == inf {
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
			return r, nil
		}
	}

	var trueDelay float64
	for i := range asgn {
		trueDelay += s.ev.PartDelayS(partID(i), asgn[i])
	}
	r.Assignment = asgn
	r.LeakageW = s.ev.LeakageW(asgn)
	r.DelayS = trueDelay
	r.Feasible = true
	return r, nil
}

// SchemeIBins is the delay quantization of the Scheme I dynamic program.
// Finer bins tighten the (conservative) quantization error.
const SchemeIBins = 4000

func approxEq(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// OptimizeCtx finds the least-leaky assignment of scheme s that meets
// the delay budget, answered from the prepared search of (ev, ops); any
// scheme but I and II is Scheme III. Scheme III (one pair for the whole
// cache) and Scheme II (one pair for the cell array, one for the
// periphery) are exact, and return the earliest candidate in ops among
// those tied for the least leakage. Scheme I (a pair per component) runs
// a dynamic program over the budget cut into SchemeIBins bins: each delay
// is rounded up to whole bins, less a 1e-12-bin allowance for rounding
// error, so its assignment exceeds the true budget by at most that
// allowance per component, and it may miss one within a bin width of the
// budget. On cancellation OptimizeCtx returns ctx's error and an
// infeasible result; Scheme I also checks ctx between its DP layers.
func OptimizeCtx(ctx context.Context, s Scheme, ev Evaluator, ops []device.OperatingPoint, delayBudget float64) (Result, error) {
	return searchFor(ev, ops).query(ctx, s, delayBudget)
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
// independent, so each runs on its own worker, all querying one search;
// results come back in budget order.
func FrontierCtx(ctx context.Context, s Scheme, ev Evaluator, ops []device.OperatingPoint, budgets []float64) ([]Result, error) {
	p := searchFor(ev, ops)
	return sweep.MapCtx(ctx, len(budgets), 0, func(ctx context.Context, i int) (Result, error) {
		return p.query(ctx, s, budgets[i])
	})
}
