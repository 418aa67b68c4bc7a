// Twolevel reproduces the paper's Section 5 two-level study: the L2 size
// sweep under an equal-AMAT constraint (single pair vs split pairs) and the
// L1 size sweep, using miss rates simulated over the three workload suites.
//
//	go run ./examples/twolevel
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
	"repro/internal/opt"
	"repro/internal/units"
)

func main() {
	ctx := context.Background()
	env := exp.NewQuickEnv()

	missRates, err := env.MissRateTable(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(missRates.ASCII())

	single, err := env.L2SizeSweep(ctx, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(single.ASCII())

	split, err := env.L2SizeSweep(ctx, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(split.ASCII())

	l1, err := env.L1Sweep(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(l1.ASCII())

	// The same study through the library API, for one (L1, L2) pair:
	// optimize the L2 knobs of a 16KB/512KB system under an explicit AMAT
	// budget.
	h, err := core.DesignHierarchy(ctx, 16*cachecfg.KB, 512*cachecfg.KB,
		core.HierarchyOptions{Accesses: 300_000})
	if err != nil {
		log.Fatal(err)
	}
	a1 := components.Uniform(opt.DefaultOP())
	target := h.AMAT(a1, components.Uniform(device.OP(0.40, 13)))
	r, err := h.OptimizeL2(ctx, opt.SchemeII, a1, target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("library API: 16KB+512KB, AMAT <= %.0f ps -> %v\n",
		units.ToPS(target), r)
	fmt.Printf("  L2 cells:  %v\n", r.L2Assignment[components.PartCellArray])
	fmt.Printf("  L2 periph: %v\n", r.L2Assignment[components.PartDecoder])
}
