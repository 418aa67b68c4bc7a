package opt

import (
	"math"
	"testing"

	"repro/internal/device"
)

// bruteForceTuples exhaustively enumerates every pair of value subsets and
// every group assignment using only the public evaluation path
// (MemorySystem.Eval), as an independent check of the optimizer's inlined
// objective and pruning.
func bruteForceTuples(ms *MemorySystem, budget TupleBudget, vthCands, toxCands []float64, amatBudget float64) TupleResult {
	res := TupleResult{Budget: budget, EnergyJ: math.Inf(1)}
	for _, vs := range combinations(len(vthCands), budget.NVth) {
		for _, ts := range combinations(len(toxCands), budget.NTox) {
			var ops []device.OperatingPoint
			for _, vi := range vs {
				for _, ti := range ts {
					ops = append(ops, device.OP(vthCands[vi], toxCands[ti]))
				}
			}
			n := len(ops)
			total := 1
			for g := 0; g < int(GroupCount); g++ {
				total *= n
			}
			for code := 0; code < total; code++ {
				var sa SystemAssignment
				c := code
				for g := 0; g < int(GroupCount); g++ {
					sa[g] = ops[c%n]
					c /= n
				}
				sys := ms.Eval(sa)
				if sys.AMAT() > amatBudget {
					continue
				}
				if e := sys.TotalEnergyJ(); e < res.EnergyJ {
					res.EnergyJ = e
					res.AMATS = sys.AMAT()
					res.Assignment = sa
					res.Feasible = true
				}
			}
		}
	}
	return res
}

func TestTupleOptimizerMatchesBruteForce(t *testing.T) {
	ms := systemForTest(t)
	// Tiny candidate menus keep the brute force tractable: 3 Vth x 2 Tox,
	// budget (2,2) -> C(3,2)*C(2,2)=3 subset pairs x 4^4 assignments.
	vths := []float64{0.20, 0.35, 0.50}
	toxs := []float64{10, 14}
	for _, frac := range []float64{0.3, 0.6} {
		target := amatFracTarget(ms, frac)
		fast, err := ms.OptimizeTuplesCtx(t.Context(), TupleBudget{NTox: 2, NVth: 2}, vths, toxs, target)
		if err != nil {
			t.Fatal(err)
		}
		slow := bruteForceTuples(ms, TupleBudget{NTox: 2, NVth: 2}, vths, toxs, target)
		if fast.Feasible != slow.Feasible {
			t.Fatalf("frac %v: feasibility mismatch (fast %v, brute %v)", frac, fast.Feasible, slow.Feasible)
		}
		if !fast.Feasible {
			continue
		}
		if math.Abs(fast.EnergyJ-slow.EnergyJ) > 1e-9*slow.EnergyJ {
			t.Errorf("frac %v: optimizer %v != brute force %v", frac, fast.EnergyJ, slow.EnergyJ)
		}
	}
}

func amatFracTarget(ms *MemorySystem, frac float64) float64 {
	fast := ms.AMATS(uniformSystem(device.OP(0.20, 10)))
	slow := ms.AMATS(uniformSystem(device.OP(0.50, 14)))
	return fast + frac*(slow-fast)
}

func TestTupleSingleValueBudgets(t *testing.T) {
	// (1,1) budgets degenerate to Scheme-III-style uniform choices over the
	// candidate menu; the result must use exactly one value of each knob.
	ms := systemForTest(t)
	vths, toxs := CoarseMenu()
	r, err := ms.OptimizeTuplesCtx(t.Context(), TupleBudget{NTox: 1, NVth: 1}, vths, toxs, amatFracTarget(ms, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatal("(1,1) infeasible at a loose budget")
	}
	if r.Assignment.DistinctVths() != 1 || r.Assignment.DistinctToxs() != 1 {
		t.Errorf("(1,1) used %d Vths / %d Toxs", r.Assignment.DistinctVths(), r.Assignment.DistinctToxs())
	}
	// More budget can only help.
	r22, err := ms.OptimizeTuplesCtx(t.Context(), TupleBudget{NTox: 2, NVth: 2}, vths, toxs, amatFracTarget(ms, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	if r22.Feasible && r22.EnergyJ > r.EnergyJ*(1+1e-9) {
		t.Errorf("(2,2) worse than (1,1): %v vs %v", r22.EnergyJ, r.EnergyJ)
	}
}
