package opt

import (
	"context"
	"fmt"
	"math"

	"repro/internal/amat"
	"repro/internal/components"
	"repro/internal/device"
	"repro/internal/sweep"
	"repro/internal/units"
)

// GroupID identifies one knob group of the whole memory system: each cache
// level contributes a cell-array group and a periphery group (the Scheme II
// granularity the paper settles on).
type GroupID int

const (
	// GroupL1Cell is the L1 memory cell array.
	GroupL1Cell GroupID = iota
	// GroupL1Periph is the L1 decoder + bus drivers.
	GroupL1Periph
	// GroupL2Cell is the L2 memory cell array.
	GroupL2Cell
	// GroupL2Periph is the L2 decoder + bus drivers.
	GroupL2Periph
	// GroupCount is the number of knob groups in the system.
	GroupCount
)

var groupNames = [GroupCount]string{"L1-cell", "L1-periph", "L2-cell", "L2-periph"}

// String names the group.
func (g GroupID) String() string {
	if g < 0 || g >= GroupCount {
		return fmt.Sprintf("group(%d)", int(g))
	}
	return groupNames[g]
}

// SystemAssignment assigns an operating point to each knob group.
type SystemAssignment [GroupCount]device.OperatingPoint

// L1 returns the L1 cache assignment implied by the system assignment.
func (sa SystemAssignment) L1() components.Assignment {
	return components.Split(sa[GroupL1Cell], sa[GroupL1Periph])
}

// L2 returns the L2 cache assignment.
func (sa SystemAssignment) L2() components.Assignment {
	return components.Split(sa[GroupL2Cell], sa[GroupL2Periph])
}

// DistinctVths returns the number of distinct Vth values used.
func (sa SystemAssignment) DistinctVths() int {
	seen := map[float64]bool{}
	for _, op := range sa {
		seen[op.Vth] = true
	}
	return len(seen)
}

// DistinctToxs returns the number of distinct Tox values used.
func (sa SystemAssignment) DistinctToxs() int {
	seen := map[float64]bool{}
	for _, op := range sa {
		seen[op.ToxM] = true
	}
	return len(seen)
}

// MemorySystem evaluates whole-system assignments: L1 + L2 + main memory,
// the setting of the paper's Figure 2.
type MemorySystem struct {
	TwoLevel
}

// Eval returns the amat.System for a system assignment.
func (ms *MemorySystem) Eval(sa SystemAssignment) amat.System {
	return ms.System(sa.L1(), sa.L2())
}

// TotalEnergyJ is the Figure 2 objective.
func (ms *MemorySystem) TotalEnergyJ(sa SystemAssignment) float64 {
	return ms.Eval(sa).TotalEnergyJ()
}

// AMATS returns the system AMAT.
func (ms *MemorySystem) AMATS(sa SystemAssignment) float64 {
	return ms.Eval(sa).AMAT()
}

// TupleBudget is a process-cost budget: how many distinct Tox values and how
// many distinct Vth values the fab flow provides.
type TupleBudget struct {
	NTox int
	NVth int
}

func (b TupleBudget) String() string { return fmt.Sprintf("%d Tox + %d Vth", b.NTox, b.NVth) }

// Validate checks the budget against candidate list sizes.
func (b TupleBudget) Validate(nVthCands, nToxCands int) error {
	if b.NTox < 1 || b.NVth < 1 {
		return fmt.Errorf("opt: tuple budget %v must be at least 1+1", b)
	}
	if b.NTox > nToxCands || b.NVth > nVthCands {
		return fmt.Errorf("opt: tuple budget %v exceeds candidates (%d Vth, %d Tox)",
			b, nVthCands, nToxCands)
	}
	return nil
}

// TupleResult is the outcome of a tuple-budget optimization.
type TupleResult struct {
	Budget     TupleBudget
	VthSet     []float64 // chosen Vth values (V)
	ToxSet     []float64 // chosen Tox values (angstrom)
	Assignment SystemAssignment
	EnergyJ    float64
	AMATS      float64
	LeakageW   float64
	Feasible   bool
	Evaluated  int
}

func (r TupleResult) String() string {
	if !r.Feasible {
		return fmt.Sprintf("%v: infeasible", r.Budget)
	}
	return fmt.Sprintf("%v: E=%.4gJ AMAT=%.4gs Vth=%v Tox=%v", r.Budget, r.EnergyJ, r.AMATS, r.VthSet, r.ToxSet)
}

// groupMetrics caches per-group leakage and delay for every candidate
// operating point, so assignment enumeration is pure arithmetic.
type groupMetrics struct {
	leak  []float64
	delay []float64
}

func (ms *MemorySystem) groupTables(ops []device.OperatingPoint) [GroupCount]groupMetrics {
	var out [GroupCount]groupMetrics
	for g := GroupID(0); g < GroupCount; g++ {
		out[g] = groupMetrics{
			leak:  make([]float64, len(ops)),
			delay: make([]float64, len(ops)),
		}
	}
	for i, op := range ops {
		for _, gc := range []struct {
			ev   CacheEvaluator
			cell GroupID
			peri GroupID
		}{
			{ms.L1, GroupL1Cell, GroupL1Periph},
			{ms.L2, GroupL2Cell, GroupL2Periph},
		} {
			out[gc.cell].leak[i] = gc.ev.PartLeakageW(components.PartCellArray, op)
			out[gc.cell].delay[i] = gc.ev.PartDelayS(components.PartCellArray, op)
			for _, p := range periphParts {
				out[gc.peri].leak[i] += gc.ev.PartLeakageW(p, op)
				out[gc.peri].delay[i] += gc.ev.PartDelayS(p, op)
			}
		}
	}
	return out
}

// OptimizeTuplesCtx finds, for the given tuple budget, the choice of
// Vth/Tox value sets and the per-group assignment minimizing total energy
// under the AMAT budget. Candidates are coarse grids (the fab offers a
// handful of options, see CoarseMenu); all subsets of the candidate lists
// of the budgeted sizes are enumerated, and within each subset all group
// assignments are scanned.
//
// The (Vth set, Tox set) choices are walked in enumeration order with one
// running best and a strict inequality, so the earliest minimum wins ties.
// A budget the candidate lists cannot fill is an error. Cancellation
// aborts the enumeration with ctx's error.
func (ms *MemorySystem) OptimizeTuplesCtx(ctx context.Context, budget TupleBudget, vthCands, toxCands []float64, amatBudget float64) (TupleResult, error) {
	res := TupleResult{Budget: budget, EnergyJ: math.Inf(1)}
	if err := budget.Validate(len(vthCands), len(toxCands)); err != nil {
		return res, err
	}
	toxSets := combinations(len(toxCands), budget.NTox)
	for _, vs := range combinations(len(vthCands), budget.NVth) {
		for _, ts := range toxSets {
			if err := ms.tupleCombo(ctx, &res, vthCands, toxCands, vs, ts, amatBudget); err != nil {
				return TupleResult{Budget: budget, EnergyJ: math.Inf(1)}, err
			}
		}
	}
	return res, nil
}

// tupleCombo scans all group assignments of one (Vth set, Tox set) choice,
// folding them into the running best res.
func (ms *MemorySystem) tupleCombo(ctx context.Context, res *TupleResult, vthCands, toxCands []float64, vs, ts []int, amatBudget float64) error {
	// Build the pair menu for this value-set choice.
	ops := make([]device.OperatingPoint, 0, len(vs)*len(ts))
	for _, vi := range vs {
		for _, ti := range ts {
			ops = append(ops, device.OP(vthCands[vi], toxCands[ti]))
		}
	}
	tables := ms.groupTables(ops)
	n := len(ops)

	// Enumerate all n^4 group assignments, checking the context once per
	// outermost slice so cancellation does not wait out the whole scan.
	var idx [GroupCount]int
	for idx[0] = 0; idx[0] < n; idx[0]++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for idx[1] = 0; idx[1] < n; idx[1]++ {
			t1 := tables[0].delay[idx[0]] + tables[1].delay[idx[1]]
			l1leak := tables[0].leak[idx[0]] + tables[1].leak[idx[1]]
			for idx[2] = 0; idx[2] < n; idx[2]++ {
				for idx[3] = 0; idx[3] < n; idx[3]++ {
					res.Evaluated++
					t2 := tables[2].delay[idx[2]] + tables[3].delay[idx[3]]
					am := t1 + ms.M1*(t2+ms.M2*ms.Mem.LatencyS)
					if am > amatBudget {
						continue
					}
					l2leak := tables[2].leak[idx[2]] + tables[3].leak[idx[3]]
					var sa SystemAssignment
					for g := range sa {
						sa[g] = ops[idx[g]]
					}
					edyn := ms.L1.DynamicEnergyJ(sa.L1()) +
						ms.M1*(ms.L2.DynamicEnergyJ(sa.L2())+ms.M2*ms.Mem.EnergyJ)
					e := edyn + (l1leak+l2leak+ms.Mem.StandbyW)*am
					if e < res.EnergyJ {
						res.EnergyJ = e
						res.AMATS = am
						res.LeakageW = l1leak + l2leak
						res.Assignment = sa
						res.VthSet = pick(vthCands, vs)
						res.ToxSet = pick(toxCands, ts)
						res.Feasible = true
					}
				}
			}
		}
	}
	return nil
}

// TupleCurveCtx sweeps AMAT budgets for one tuple budget — one Figure 2
// series. Budgets are independent and run in parallel, collected in budget
// order.
func (ms *MemorySystem) TupleCurveCtx(ctx context.Context, budget TupleBudget, vthCands, toxCands []float64, amatBudgets []float64) ([]TupleResult, error) {
	return sweep.MapCtx(ctx, len(amatBudgets), 0, func(ctx context.Context, i int) (TupleResult, error) {
		return ms.OptimizeTuplesCtx(ctx, budget, vthCands, toxCands, amatBudgets[i])
	})
}

// Figure2Budgets are the five (#Tox, #Vth) tuples plotted in the paper.
func Figure2Budgets() []TupleBudget {
	return []TupleBudget{
		{NTox: 2, NVth: 2},
		{NTox: 2, NVth: 3},
		{NTox: 3, NVth: 2},
		{NTox: 2, NVth: 1},
		{NTox: 1, NVth: 2},
	}
}

// CoarseMenu returns the coarse Vth (V) and Tox (angstrom) value lists
// the fab flow offers — the candidates the Figure 2 tuple search picks its
// value sets from (7 Vth and 5 Tox values).
func CoarseMenu() (vths, toxs []float64) {
	return units.GridSteps(0.20, 0.50, 0.05), units.GridSteps(10, 14, 1)
}

// combinations returns all k-subsets of {0..n-1} in lexicographic order.
func combinations(n, k int) [][]int {
	if k < 0 || k > n {
		return nil
	}
	var out [][]int
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		out = append(out, append([]int(nil), idx...))
		// Advance.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return out
}

func pick(vals []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = vals[j]
	}
	return out
}
