// Gridsweep demonstrates design-space grids end to end: spec.json
// declares axes over the scenario fields (2 L1 sizes × 3 L2 sizes × 2
// workloads × 2 schemes = 24 points here), grid.Expand materializes the
// full factorial product as a work.Batch, the unified driver streams the
// per-point NDJSON results, and grid.Frontier reduces them to the
// leakage-vs-AMAT Pareto front — the paper's power-performance trade-off
// curve computed across the whole grid instead of hand-picked points.
//
//	go run ./examples/gridsweep
//
// The same spec drives the CLIs, which all read it through grid.LoadWork,
// so it means the same to each of them (-fidelity included). Locally:
//
//	go run ./cmd/scenario -f examples/gridsweep/spec.json -stream -frontier
//
// Distributed across machines, the grid travels as the spec plus a point
// range per work unit (the fleet re-expands deterministically — no config
// list ever crosses the wire), and checkpoint/resume works exactly as for
// scenario batches — across CLIs too: `sweepd serve -resume` completes a
// journal `scenario -stream -checkpoint` started, and the reverse:
//
//	sweepd serve -f examples/gridsweep/spec.json -units 24 \
//	    -checkpoint grid.journal -resume > grid.ndjson
//	sweepd work -coordinator http://host:8080   # per core/machine
//	sweepd journal -f examples/gridsweep/spec.json -checkpoint grid.journal
//
// spec-analytical.json is the same study at analytical fidelity: its
// base sets "fidelity": "analytical", so every point's miss rates come
// from the stack-distance fast path (internal/profile) — one profiling
// pass per workload instead of one simulation per point — and it sweeps
// the AMAT budget axis from a tight 1900 ps up to an effectively
// unconstrained 1200000 ps:
//
//	go run ./cmd/scenario -f examples/gridsweep/spec-analytical.json -stream -frontier
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"

	"repro/internal/cli"
	"repro/internal/grid"
	"repro/internal/work"
)

func main() {
	log.SetFlags(0)
	ctx, stop := cli.SignalContext()
	defer stop()

	f, err := os.Open("examples/gridsweep/spec.json")
	if err != nil {
		log.Fatal(err)
	}
	spec, err := grid.Load(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	b, err := spec.Expand()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "gridsweep: %d design points\n", b.Len())

	// Stream the grid through the unified driver; the Observe hook feeds
	// the frontier reduction without re-parsing stdout.
	var fr grid.Frontier
	var frErr error
	opts := work.Options{Observe: func(i int, line json.RawMessage) {
		if err := fr.Add(i, line); err != nil && frErr == nil {
			frErr = err
		}
	}}
	if err := work.Run(ctx, b, opts, os.Stdout); err != nil {
		log.Fatal(err)
	}
	if frErr != nil {
		log.Fatal(frErr)
	}
	summary, err := fr.SummaryLine()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", summary)
}
