// Quickstart: design a 16 KB cache, look at its leakage/delay at two knob
// assignments, then let the optimizer find the best Scheme II assignment
// under a delay budget.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cachecfg"
	"repro/internal/components"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/units"
)

func main() {
	tech := core.NewTechnology()

	// 1. Build the cache: netlists for the four components (cell array,
	//    decoder, address drivers, data drivers) plus fitted analytical
	//    models in the paper's form.
	design, err := core.DesignCache(tech, core.L1Config(16*cachecfg.KB))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cache:", design.Cache.Array)

	// 2. Evaluate two hand-picked assignments: everything fast vs a split
	//    with a conservative cell array.
	fast := components.Uniform(core.OP(0.20, 10))
	split := components.Split(core.OP(0.45, 14), core.OP(0.25, 11))
	for _, a := range []struct {
		name string
		asgn components.Assignment
	}{{"all fast", fast}, {"conservative cells", split}} {
		leak, delay, energy := design.Evaluate(a.asgn)
		fmt.Printf("%-20s leakage=%-10s access=%4.0f ps  dyn=%.1f pJ\n",
			a.name, units.FormatSI(leak, "W"), units.ToPS(delay), units.ToPJ(energy))
	}

	// 3. Optimize: minimum leakage subject to a mid-range delay budget.
	lo, hi := design.DelayRange()
	budget := lo + 0.5*(hi-lo)
	r, err := design.OptimizeLeakageCtx(context.Background(), opt.SchemeII, budget)
	if err != nil {
		log.Fatal(err)
	}
	if !r.Feasible {
		log.Fatal("no feasible assignment")
	}
	fmt.Printf("\noptimum under %.0f ps (%v):\n", units.ToPS(budget), r.Scheme)
	fmt.Printf("  %v\n", r.Assignment)
	fmt.Printf("  leakage %.3f mW at %.0f ps\n", units.ToMW(r.LeakageW), units.ToPS(r.DelayS))
}
