// Package opt implements the paper's optimization problems: minimize total
// leakage power (or total energy) of a cache or cache hierarchy by assigning
// discrete (Vth, Tox) values to components, subject to a delay (or AMAT)
// constraint.
//
// Section 4's three assignment schemes are provided for a single cache:
//
//   - Scheme I: an independent pair per component — solved exactly (up to
//     delay quantization) with per-component Pareto sets and a
//     multiple-choice-knapsack dynamic program;
//   - Scheme II: one pair for the cell array, one for the periphery —
//     solved by combining the two groups' Pareto fronts;
//   - Scheme III: a single pair — solved over the grid's candidates.
//
// Section 5's two-level and whole-memory-system optimizations, and the
// Figure 2 (#Tox, #Vth) tuple-budget search, build on the same machinery in
// twolevel.go and tuple.go.
//
// Schemes I–III answer from one prepared search per (evaluator, ops)
// pair. What a scheme needs from the pair alone, never from the budget,
// is built on the first query of that scheme, on the querying goroutine:
// the four component fronts (Scheme I), the cell and periphery fronts
// (Scheme II), and the uniform candidates sorted stably by delay with a
// prefix argmin over (leakage, scan index) (Scheme III). A query then
// runs Scheme I's dynamic program, combines Scheme II's fronts, or
// binary-searches Scheme III's candidates for the last one within the
// budget. Each returns what an ordered scan of ops returns: the least
// leakage, the earliest candidate in ops on exact ties (ParetoFront
// sorts stably to keep it). Result.Evaluated counts every candidate
// scored once per knob group, len(ops) times 4, 2 or 1 for Schemes I,
// II and III, as a scan would; Scheme I reports 0 for a budget of zero
// or less, which it refuses before its dynamic program. A NaN budget,
// which no delay meets, is infeasible in every scheme, and a cancelled
// context is reported before any work. One search is safe for
// concurrent queries: FrontierCtx fans its budgets out over one.
//
// Searches are held by evaluator. Prepare registers an evaluator with
// the ops slice it is searched over; only core.SharedDesign's memo build
// calls it, once per cache organization, for SharedKnobGrid. A search of
// a registered evaluator over that same slice (the same backing array
// and length) answers from the registered search; any other pair, an
// evaluator whose type is not comparable included, gets a search built
// for the call.
//
// The tuple searches are plain ordered scans on the caller's goroutine
// that keep the earliest feasible candidate. Parallelism belongs to
// callers that sweep independent work — FrontierCtx,
// OptimizeL2FrontierCtx and TupleCurveCtx over budgets, and the drivers
// above them over design points.
package opt

import (
	"fmt"
	"math"

	"repro/internal/components"
	"repro/internal/device"
)

// Evaluator scores a whole-cache assignment. Both the fitted analytical
// model (model.CacheModel) and the direct circuit netlists (via Direct)
// satisfy it.
type Evaluator interface {
	LeakageW(a components.Assignment) float64
	AccessTimeS(a components.Assignment) float64
}

// ComponentEvaluator exposes per-component scores, required by the
// decomposition-based optimizers (Schemes I and II).
type ComponentEvaluator interface {
	Evaluator
	PartLeakageW(p components.PartID, op device.OperatingPoint) float64
	PartDelayS(p components.PartID, op device.OperatingPoint) float64
}

// Direct adapts a transistor-level cache to the evaluator interfaces. It is
// the "run the netlist" reference against which fitted models are validated.
type Direct struct {
	Cache *components.Cache
}

// LeakageW implements Evaluator.
func (d Direct) LeakageW(a components.Assignment) float64 {
	return d.Cache.Leakage(a).Total()
}

// AccessTimeS implements Evaluator.
func (d Direct) AccessTimeS(a components.Assignment) float64 {
	return d.Cache.AccessTime(a)
}

// PartLeakageW implements ComponentEvaluator.
func (d Direct) PartLeakageW(p components.PartID, op device.OperatingPoint) float64 {
	return d.Cache.Part(p).Leakage(op).Total()
}

// PartDelayS implements ComponentEvaluator.
func (d Direct) PartDelayS(p components.PartID, op device.OperatingPoint) float64 {
	return d.Cache.Part(p).Delay(op)
}

// Scheme is one of the paper's three Vth/Tox assignment schemes.
type Scheme int

const (
	// SchemeI assigns independent pairs to each cache component.
	SchemeI Scheme = iota + 1
	// SchemeII assigns one pair to the memory cell array and another to the
	// remaining three components.
	SchemeII
	// SchemeIII assigns the same pair to all four components.
	SchemeIII
)

// String names the scheme as in the paper.
func (s Scheme) String() string {
	switch s {
	case SchemeI:
		return "Scheme I"
	case SchemeII:
		return "Scheme II"
	case SchemeIII:
		return "Scheme III"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Result is the outcome of a single-cache optimization.
type Result struct {
	Scheme     Scheme
	Assignment components.Assignment
	LeakageW   float64
	DelayS     float64
	Feasible   bool
	// Evaluated counts objective evaluations, for reporting optimizer cost.
	Evaluated int
}

func (r Result) String() string {
	if !r.Feasible {
		return fmt.Sprintf("%v: infeasible", r.Scheme)
	}
	return fmt.Sprintf("%v: leak=%.4gW delay=%.4gs [%v]", r.Scheme, r.LeakageW, r.DelayS, r.Assignment)
}

// Knob grids ---------------------------------------------------------------

// PairsFromGrid expands a grid into operating points.
func PairsFromGrid(vths, toxAs []float64) []device.OperatingPoint {
	out := make([]device.OperatingPoint, 0, len(vths)*len(toxAs))
	for _, v := range vths {
		for _, x := range toxAs {
			out = append(out, device.OP(v, x))
		}
	}
	return out
}

// VthOnlyGrid restricts the search to Vth with Tox pinned — the prior-art
// baseline of Kim et al. [7], which the paper extends.
func VthOnlyGrid(vths []float64, toxA float64) []device.OperatingPoint {
	out := make([]device.OperatingPoint, 0, len(vths))
	for _, v := range vths {
		out = append(out, device.OP(v, toxA))
	}
	return out
}

// ToxOnlyGrid restricts the search to Tox with Vth pinned.
func ToxOnlyGrid(toxAs []float64, vth float64) []device.OperatingPoint {
	out := make([]device.OperatingPoint, 0, len(toxAs))
	for _, x := range toxAs {
		out = append(out, device.OP(vth, x))
	}
	return out
}

// DefaultOP is the nominal high-performance assignment used where the paper
// says "assign the default Vth and Tox" (e.g. the L1 in the first L2
// experiment).
func DefaultOP() device.OperatingPoint { return device.OP(0.25, 11) }

// ConservativeOP is a low-leakage assignment (high Vth, thick Tox) used for
// pinning cell arrays in fixed-L2 experiments.
func ConservativeOP() device.OperatingPoint { return device.OP(0.45, 13) }

// feasibleInf is a sentinel for "no feasible assignment found".
func infeasible(s Scheme) Result {
	return Result{Scheme: s, LeakageW: math.Inf(1), Feasible: false}
}
