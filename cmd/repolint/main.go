// Command repolint runs the repository's own static-analysis suite
// (internal/analysis): the determinism and architecture invariants —
// fan-out only through the sweep engine, no map-iteration order in
// output, injected clocks, fixed-point float formatting, context-first
// entry points, every registered workload kind wired into the
// equivalence suite, no exported API that only tests call — checked at
// review time instead of discovered at run time. Zero diagnostics is the contract: `make lint` and the CI
// checks job fail on any finding.
//
// Usage:
//
//	repolint ./...
//	repolint -list
//	repolint ./internal/grid ./internal/scenario
//
// Patterns are `go list` patterns; with none, ./... is linted. The
// kindfixture analyzer needs internal/work in the pattern set to see the
// equivalence suite's fixture table, and deadexport runs only when every
// package of the module is loaded, so ./... is the shape CI runs.
//
// Intentional exceptions carry a `//lint:allow <analyzer> <reason>`
// directive on (or directly above) the flagged line; repolint rejects
// directives without a reason, directives that suppress nothing, and
// directives naming unknown analyzers.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/cli"
)

func main() {
	ctx, stop := cli.SignalContext()
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the testable entry point: 0 on a clean run, 1 on diagnostics,
// 2 on usage or load errors.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the analyzers and their rules, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	suite := analysis.Suite()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%s\n    %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := analysis.Load(ctx, ".", patterns)
	if err != nil {
		fmt.Fprintln(stderr, "repolint:", err)
		if cli.Cancelled(err) || ctx.Err() != nil {
			return 130
		}
		return 2
	}
	diags := analysis.RunSuite(prog, analysis.SuiteOptions{Analyzers: suite, Strict: true})
	for _, d := range diags {
		fmt.Fprintln(stdout, d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "repolint: %d diagnostic(s)\n", len(diags))
		return 1
	}
	return 0
}
