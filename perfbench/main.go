// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload of design-space grids in-process and prints, as the last
// line of standard output, a JSON object with the run's correctness
// verdict, item counts and metrics:
//
//	perfbench --workload grid-analytical --seed 1 --seconds 10 --trace 0
//
// Workloads (see workloads below for the grids and why each exists):
//
//   - grid-analytical: an analytical-fidelity grid streamed through
//     work.Run with the Pareto-frontier reduction, as
//     `scenario -stream -frontier` runs it;
//   - grid-trace: a trace-fidelity grid through the same driver;
//   - service: an in-process dist.Service over a fresh store behind a
//     loopback HTTP server with two workers: submit grid A, resubmit it to
//     a restarted service, then submit grid B, which overlaps half of A.
//
// Every workload also runs the three-phase service pass (on a small slice
// of its own grid for the two grid workloads), so resubmit_s and overlap_s
// exist everywhere. With --trace 0 the run is untraced and reports the
// end-to-end metrics; with --trace 1 it reports per-layer metrics from
// spans recorded around calls into each layer's public functions, and
// writes the spans to .bench_build/spans/<workload>.ndjson. --workload all
// runs the three workloads in turn and prints one result line each.
//
// The seed is passed to the program only as the grids' seed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/cli"
	"repro/internal/grid"
	"repro/internal/profile"
	"repro/internal/scenario"
)

// workers bounds the load: the host has two cores, so the driver runs two
// items at a time and the service fleet is two single-item workers.
const workers = 2

// setupReps is how many times a traced run repeats its cold set-up before
// reporting the medians of its parts.
const setupReps = 3

// workDir is where runs keep their stores, sinks and spans, relative to
// the checkout root the benchmark runs from.
const workDir = ".bench_build"

// pointName names grid points; budgets vary, so the template carries them.
const pointName = "g-l1{l1_kb}-l2{l2_kb}-{workload}-s{scheme}-b{amat_budget_ps}"

// workload is one named set of inputs.
type workload struct {
	name string
	// grid is the batch of the grid pass: streamed through work.Run with
	// the frontier reduction, and rebuilt point by point when traced.
	grid grid.Grid
	// svcA and svcB are the service pass's batches; B overlaps half of A.
	svcA, svcB grid.Grid
	// unitPoints is the service's points per work unit.
	unitPoints int
	// servicePrimary makes the service pass, not the grid pass, the source
	// of items_per_s, the item latencies and peak_heap_mb.
	servicePrimary bool
}

// budgets returns n AMAT budgets in picoseconds, from first in steps of
// 100 ps.
func budgets(first, n int) []float64 {
	out := make([]float64, n)
	for k := range out {
		out[k] = float64(first + 100*k)
	}
	return out
}

func newGrid(seed int64, fidelity string, accesses int, l1, l2 []int, suites []string, schemes []int, amat []float64) grid.Grid {
	return grid.Grid{
		Name: pointName,
		Axes: grid.Axes{L1KB: l1, L2KB: l2, Workload: suites, Scheme: schemes, AMATBudgetPS: amat},
		Base: scenario.Config{Accesses: accesses, Seed: seed, Fidelity: fidelity},
		// The analytical grid is 8000 points, above the default cap.
		MaxPoints: 1 << 16,
	}
}

// workloads defines the benchmark's inputs for one seed.
//
// grid-analytical: the knob search (opt) takes nearly all per-point time
// and miss rates are memo hits, so this is where an opt change shows.
// Budgets 1700-5600 ps leave 14.6% of the points infeasible on every seed
// tried: those skip the search, and they keep the median item inside the
// Scheme III cluster instead of on the edge between the Scheme II and III
// clusters, which hold half the points each.
//
// grid-trace: the trace-driven simulator (sim) takes nearly all per-point
// time and opt almost none, so an opt change should not move it and a sim
// change shows only here. A point's cost is set by its workload's suite
// count and trace; "average" simulates all three suites, and leaving it
// out keeps the median item inside the specweb cluster.
//
// service: the first half of grid-analytical's points, now paying for the
// lease/result wire, journal writes, index adoption and journal reads.
func workloads(seed int64) []workload {
	l1All := []int{4, 8, 16, 32, 64}
	l2All := []int{256, 512, 1024, 2048, 4096}
	all := []string{"spec2000", "specweb", "tpcc", "average"}
	single := all[:3]
	both := []int{2, 3}
	an := func(l1, l2 []int, amat []float64) grid.Grid {
		return newGrid(seed, profile.FidelityAnalytical, 200_000, l1, l2, all, both, amat)
	}
	tr := func(l1, l2, schemes []int, amat []float64) grid.Grid {
		return newGrid(seed, profile.FidelityTrace, 50_000, l1, l2, single, schemes, amat)
	}
	return []workload{
		{
			name:       "grid-analytical",
			grid:       an(l1All, l2All, budgets(1700, 40)),
			svcA:       an([]int{8, 32}, []int{512, 2048}, budgets(1700, 20)),
			svcB:       an([]int{8, 32}, []int{512, 2048}, budgets(2700, 20)),
			unitPoints: 32,
		},
		{
			name:       "grid-trace",
			grid:       tr([]int{8, 16, 32}, []int{256, 1024, 4096}, both, []float64{3000, 4500, 6000}),
			svcA:       tr([]int{16}, []int{1024}, []int{2}, budgets(3000, 4)),
			svcB:       tr([]int{16}, []int{1024}, []int{2}, budgets(3200, 4)),
			unitPoints: 1,
		},
		{
			name:           "service",
			grid:           an(l1All, l2All, budgets(1700, 20)),
			svcA:           an(l1All, l2All, budgets(1700, 20)),
			svcB:           an(l1All, l2All, budgets(2700, 20)),
			unitPoints:     32,
			servicePrimary: true,
		},
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	seed    int64
	seconds float64
	traced  bool
}

func main() {
	ctx, stop := cli.SignalContext()
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "grid-analytical, grid-trace, service, or all")
	seed := fs.Int64("seed", 1, "workload seed, passed to the program as the grids' seed")
	secs := fs.Int("seconds", 10, "how long the measured phase runs")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	var todo []workload
	for _, w := range workloads(*seed) {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	// Every run must end well within three minutes, build included.
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	o := options{seed: *seed, seconds: float64(*secs), traced: *trace == 1}
	for _, w := range todo {
		res, err := runWorkload(ctx, w, o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		report(stderr, w.name, res)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return 0
}

// runWorkload runs one workload in a fresh work directory that is removed
// afterwards.
func runWorkload(ctx context.Context, w workload, o options) (result, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	if o.traced {
		return tracedRun(ctx, w, o, dir)
	}
	return measuredRun(ctx, w, o, dir)
}

// report prints every metric by name and unit, and the failure ratio, to
// stderr.
func report(stderr io.Writer, name string, res result) {
	ratio := float64(res.Failed) / float64(res.Attempted)
	fmt.Fprintf(stderr, "%s: correct=%t attempted=%d failed=%d fail_ratio=%s\n",
		name, res.Correct, res.Attempted, res.Failed, strconv.FormatFloat(ratio, 'f', 6, 64))
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		fmt.Fprintf(stderr, "  %-26s %14s %s\n", k, strconv.FormatFloat(m.Value, 'f', 6, 64), m.Unit)
	}
}

// counts tallies items attempted and failed (errored or mismatched).
type counts struct {
	attempted, failed int
}

func (c *counts) add(attempted, failed int) {
	c.attempted += attempted
	c.failed += failed
}

func (c counts) result(ms map[string]metric) result {
	return result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: ms}
}

// spansPath is where a traced run writes its spans.
func spansPath(name string) string { return filepath.Join(workDir, "spans", name+".ndjson") }
