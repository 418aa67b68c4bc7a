package opt

import (
	"testing"

	"repro/internal/components"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/units"
)

// frontierSystem builds a small two-level system on the shared fitted-model
// fixtures.
func frontierSystem(t *testing.T) (*TwoLevel, []device.OperatingPoint) {
	t.Helper()
	l1m, l2m, _ := testModels(t)
	tl := &TwoLevel{L1: l1m, L2: l2m, M1: 0.05, M2: 0.3, Mem: mem.DefaultDDR()}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	return tl, coarseOps()
}

// TestOptimizeL2FrontierMatchesPointwise pins the parallel frontier to the
// per-budget sequential calls it fans out: same budgets in, same results
// out, in budget order.
func TestOptimizeL2FrontierMatchesPointwise(t *testing.T) {
	tl, ops := frontierSystem(t)
	a1 := components.Uniform(DefaultOP())

	fast := tl.AMAT(a1, components.Uniform(device.OP(0.20, 10)))
	slow := tl.AMAT(a1, components.Uniform(device.OP(0.50, 14)))
	budgets := units.Linspace(fast*0.5, slow*1.1, 7) // includes infeasible low end

	got, err := tl.OptimizeL2FrontierCtx(t.Context(), SchemeII, a1, ops, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(budgets) {
		t.Fatalf("frontier has %d results for %d budgets", len(got), len(budgets))
	}
	feasible := 0
	for i, b := range budgets {
		want, err := tl.OptimizeL2Ctx(t.Context(), SchemeII, a1, ops, b)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("budget %d: frontier %+v != pointwise %+v", i, got[i], want)
		}
		if got[i].Feasible {
			feasible++
			if got[i].AMATS > b*(1+1e-12) {
				t.Errorf("budget %d: AMAT %g exceeds budget %g", i, got[i].AMATS, b)
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible budget in the sweep range")
	}
	// Leakage is non-increasing as the budget relaxes.
	var prev float64
	first := true
	for i, r := range got {
		if !r.Feasible {
			continue
		}
		if !first && r.LeakageW > prev*(1+1e-12) {
			t.Errorf("budget %d: leakage %g rose as the budget relaxed (prev %g)", i, r.LeakageW, prev)
		}
		prev, first = r.LeakageW, false
	}
}
