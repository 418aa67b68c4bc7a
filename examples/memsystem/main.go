// Memsystem reproduces the paper's Figure 2: how many distinct Tox and Vth
// values does a process need for a near-optimal memory system? It sweeps
// AMAT budgets for the five (#Tox, #Vth) tuple budgets and prints the
// energy curves plus the headline comparison.
//
//	go run ./examples/memsystem
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cachecfg"
	"repro/internal/components"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/exp"
	"repro/internal/mem"
	"repro/internal/opt"
	"repro/internal/units"
)

// fmtSet renders a value set like "{0.25, 0.45}".
func fmtSet(vals []float64, f string) string {
	s := "{"
	for i, v := range vals {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf(f, v)
	}
	return s + "}"
}

func main() {
	ctx := context.Background()
	env := exp.NewQuickEnv()

	fig2, err := env.Fig2(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fig2.Plot(72, 24))

	summary, err := env.Fig2Summary(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(summary.ASCII())

	// The same study through the library API: one tuple optimization with
	// explicit budgets.
	w := core.Workload{Name: core.Average, Seed: 1, Accesses: 300_000}
	tl, err := core.Point(ctx, w, 16*cachecfg.KB, 512*cachecfg.KB, mem.DefaultDDR())
	if err != nil {
		log.Fatal(err)
	}
	mid := components.Uniform(device.OP(0.35, 12))
	target := tl.AMAT(mid, mid)
	fmt.Printf("library API: AMAT budget %.0f ps\n", units.ToPS(target))
	ms := &opt.MemorySystem{TwoLevel: tl}
	vths, toxs := opt.CoarseMenu()
	for _, b := range opt.Figure2Budgets() {
		r, err := ms.OptimizeTuplesCtx(ctx, b, vths, toxs, target)
		if err != nil {
			log.Fatal(err)
		}
		if !r.Feasible {
			fmt.Printf("  %-14v infeasible\n", b)
			continue
		}
		fmt.Printf("  %-14v E=%6.1f pJ  leak=%6.2f mW  Vth=%s  Tox=%s\n",
			b, units.ToPJ(r.EnergyJ), units.ToMW(r.LeakageW), fmtSet(r.VthSet, "%.2f"), fmtSet(r.ToxSet, "%.0f"))
	}
}
