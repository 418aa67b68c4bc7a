// Streambatch demonstrates the streaming batch pipeline: it loads the
// example scenario batch and hands it to the unified driver (work.Run),
// which emits one NDJSON result line per scenario as it completes, in
// input order, with per-scenario progress on stderr — the pattern for
// result sets too large to buffer in memory. Ctrl-C cancels the run
// cleanly mid-simulation.
//
//	go run ./examples/streambatch
//	go run ./examples/streambatch | jq .name
//
// The same pipeline is reachable from the CLI:
//
//	scenario -f examples/scenarios.json -stream -progress
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/cli"
	"repro/internal/scenario"
	"repro/internal/work"
)

func main() {
	log.SetFlags(0)
	ctx, stop := cli.SignalContext()
	defer stop()

	f, err := os.Open("examples/scenarios.json")
	if err != nil {
		log.Fatal(err)
	}
	b, err := scenario.LoadBatch(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	opts := work.Options{
		Progress: func(done, total int) {
			fmt.Fprintf(os.Stderr, "completed %d/%d scenarios\n", done, total)
		},
	}
	if err := work.Run(ctx, b, opts, os.Stdout); err != nil {
		if cli.Cancelled(err) {
			log.Fatal("cancelled; NDJSON lines already written remain valid")
		}
		log.Fatal(err)
	}
}
