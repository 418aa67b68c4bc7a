// Command scenario runs a JSON-described cache-hierarchy study: simulate
// the workload, optimize the L2 knobs under an AMAT budget, and optionally
// run tuple-budget optimizations. Results are emitted as JSON.
//
// The input is a single scenario object, a batch — a top-level
// "scenarios" array — or a grid document — a top-level "grid" object
// declaring axes over the scenario fields, which expands into the full
// factorial design-space sweep (see examples/gridsweep/spec.json and
// internal/grid). grid.LoadWork reads it, so a document means here what
// it means to `sweepd` and to POST /v1/batches. Every document runs as a
// batch through the same driver, concurrently with per-scenario
// isolation; a single config is a batch of one whose buffered output is
// its one result object. With -stream, results are emitted as NDJSON
// (one compact result object per line, in input order, written as each
// scenario completes) instead of one buffered JSON document, so
// arbitrarily large batches never accumulate in memory. With -frontier
// (grid input only), the run additionally reduces its points to the
// leakage-vs-AMAT Pareto front and appends a final {"frontier": [...]}
// summary — as the last NDJSON line in -stream mode, as a "frontier"
// field of the buffered document otherwise.
//
// With -frontier-refine (grid input, -stream only), the run is the
// multi-fidelity ladder instead: the full grid runs at analytical
// fidelity, the Pareto shortlist (front plus a slack band sized to the
// analytical error) re-runs at trace fidelity, and the final summary's
// frontier carries trace-fidelity coordinates — the cost of a cheap pass
// over everything plus exact evaluation of only the contenders. The
// stream is both phases' lines in order, then the summary. With
// -checkpoint PATH, the analytical pass journals to PATH and the
// shortlist to PATH.refine.
//
// With -checkpoint (any document, with -stream), every completed line is
// also appended to a journal keyed by a content hash of the batch; adding
// -resume replays that journal on startup, skips (and does not re-emit)
// finished scenarios, and refuses to resume against a different batch — so
// a killed run restarted with the same command line completes exactly the
// remainder. The journal is the authoritative record of completed lines.
//
// SIGINT/SIGTERM cancel the run cleanly: in-flight scenarios stop
// mid-simulation, a partial-progress note goes to stderr, and the process
// exits 130. -timeout bounds the whole run the same way.
//
// Usage:
//
//	scenario -f study.json
//	scenario -f examples/scenarios.json -workers 4
//	scenario -f examples/scenarios.json -stream -progress
//	scenario -f examples/scenarios.json -stream -checkpoint run.journal -resume
//	scenario -f examples/gridsweep/spec.json -stream -frontier
//	scenario -f examples/gridsweep/spec.json -stream -frontier-refine
//	scenario -f examples/scenarios.json -timeout 10m
//	scenario -f examples/gridsweep/spec.json -stream -metrics-addr 127.0.0.1:9090
//	echo '{"name":"demo","l1_kb":16,"l2_kb":512,"workload":"tpcc"}' | scenario
//
// With -metrics-addr, the run serves Prometheus metrics (per-scenario
// latency histograms, throughput, queue depths) on /metrics and the Go
// profiler on /debug/pprof/ for its duration. Every run additionally
// emits a one-line JSON manifest to stderr when it ends — batch hash,
// item counts, wall time, items/sec, outcome — so any run can be
// diagnosed after the fact from its captured stderr.
//
// Example config:
//
//	{
//	  "name": "my-soc",
//	  "l1_kb": 32,
//	  "l2_kb": 1024,
//	  "workload": "average",
//	  "amat_budget_ps": 1900,
//	  "tuple_budgets": [[2,2],[2,3],[1,2]]
//	}
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"encoding/json"

	"repro/internal/cli"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/work"
)

func main() {
	ctx, stop := cli.SignalContext()
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// options are the scenario flags.
type options struct {
	file           string
	workers        int
	stream         bool
	progress       bool
	checkpoint     string
	resume         bool
	frontier       bool
	frontierRefine bool
	fidelity       string
	timeout        time.Duration
	metricsAddr    string

	// metrics is the run's registry, non-nil when -metrics-addr serves
	// one; the work driver records into it. Not a flag.
	metrics *obs.Registry
}

func registerFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.file, "f", "", "scenario JSON file (default stdin)")
	fs.IntVar(&o.workers, "workers", 0, "concurrent scenarios in batch mode (0 = GOMAXPROCS)")
	fs.BoolVar(&o.stream, "stream", false, "emit batch results as NDJSON, one line per scenario as it completes")
	fs.BoolVar(&o.progress, "progress", false, "report per-scenario completion on stderr")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "journal completed scenarios to this file (with -stream)")
	fs.BoolVar(&o.resume, "resume", false, "replay the -checkpoint journal and run only unfinished scenarios")
	fs.BoolVar(&o.frontier, "frontier", false, "append the leakage-vs-AMAT Pareto front summary (grid input only)")
	fs.BoolVar(&o.frontierRefine, "frontier-refine", false, "run the grid analytically, re-run the Pareto shortlist at trace fidelity, and append the refined front (grid input with -stream only)")
	fs.StringVar(&o.fidelity, "fidelity", "", `default miss-rate fidelity for configs that do not set one: "trace" (simulate) or "analytical" (stack-distance fast path)`)
	fs.DurationVar(&o.timeout, "timeout", 0, "abort the run after this duration (0 = unbounded)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics and /debug/pprof on this address for the run's duration (e.g. 127.0.0.1:9090; empty = off)")
}

// run is the testable entry point: context, flags and IO come from the
// caller and the exit status is returned instead of calling os.Exit.
func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	registerFlags(fs, &o)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, cancel := cli.WithTimeout(ctx, o.timeout)
	defer cancel()

	var r io.Reader = stdin
	if o.file != "" {
		f, err := os.Open(o.file)
		if err != nil {
			fmt.Fprintln(stderr, "scenario:", err)
			return 1
		}
		defer f.Close()
		r = f
	}
	data, err := io.ReadAll(r)
	if err != nil {
		fmt.Fprintln(stderr, "scenario:", err)
		return 1
	}

	var tickerW io.Writer
	if o.progress {
		tickerW = stderr
	}

	if !profile.ValidFidelity(o.fidelity) {
		fmt.Fprintf(stderr, "scenario: unknown -fidelity %q (want %q or %q)\n",
			o.fidelity, profile.FidelityTrace, profile.FidelityAnalytical)
		return 2
	}
	if o.resume && o.checkpoint == "" {
		fmt.Fprintln(stderr, "scenario: -resume requires -checkpoint")
		return 2
	}
	if o.checkpoint != "" && !o.stream {
		fmt.Fprintln(stderr, "scenario: -checkpoint requires -stream (the journal records NDJSON lines)")
		return 2
	}
	if o.frontierRefine {
		switch {
		case o.frontier:
			fmt.Fprintln(stderr, "scenario: choose one of -frontier / -frontier-refine")
			return 2
		case !o.stream:
			fmt.Fprintln(stderr, "scenario: -frontier-refine requires -stream (the run emits two NDJSON phases)")
			return 2
		case o.fidelity != "":
			fmt.Fprintln(stderr, "scenario: -frontier-refine sets fidelity per phase; drop -fidelity")
			return 2
		}
	}
	if o.metricsAddr != "" {
		o.metrics = obs.NewRegistry()
		maddr, stopMetrics, err := obs.Serve(o.metricsAddr, o.metrics)
		if err != nil {
			fmt.Fprintln(stderr, "scenario:", err)
			return 1
		}
		defer stopMetrics()
		fmt.Fprintf(stderr, "scenario: metrics on http://%s/metrics\n", maddr)
	}

	b, single, err := grid.LoadWork(data, o.fidelity)
	if err != nil {
		fmt.Fprintln(stderr, "scenario:", err)
		return 1
	}
	gb, isGrid := b.(*grid.Batch)
	if (o.frontier || o.frontierRefine) && !isGrid {
		fmt.Fprintln(stderr, "scenario: -frontier and -frontier-refine require a grid document (a top-level \"grid\" object)")
		return 2
	}
	if o.frontierRefine {
		// The refine ladder's manifest counts the analytical phase (the
		// full grid); the trace shortlist rides on top and is sized by the
		// run itself, not the input.
		start := time.Now()
		man := cli.Manifest{Tool: "scenario", Kind: "grid", Items: gb.Len(), ItemsRun: gb.Len()}
		if hash, err := gb.Hash(); err == nil {
			man.BatchSHA256 = hash
		}
		err := grid.Refine(ctx, gb.Spec(), grid.RefineOptions{
			Workers: o.workers, Checkpoint: o.checkpoint, Resume: o.resume, Progress: refineProgress(tickerW),
		}, stdout)
		man.Finish(start, nil, err)
		cli.EmitManifest(stderr, man)
		if err != nil {
			// The per-phase tickers carry partial progress; the
			// cross-phase note would mix two different totals.
			return cli.Report("scenario", err, cli.NewProgress("scenario", "points", nil), stderr)
		}
		return 0
	}

	// Grid runs count "points": the unit operators watching a
	// million-point sweep reason in.
	noun := "scenarios"
	if isGrid {
		noun = "points"
	}
	var fr *grid.Frontier
	if o.frontier {
		fr = &grid.Frontier{}
	}
	return runWorkBatch(ctx, b, single, o, fr, cli.NewProgress("scenario", noun, tickerW), stdout, stderr)
}

// runWorkBatch drives any ordered workload (a scenario batch, a single
// config as a batch of one, or an expanded grid) through the unified
// driver: -stream is work.Run, -checkpoint adds its journal, and the
// buffered document is work.Collect reassembled. A non-nil frontier accumulates every result line — the
// Observe hook of work.Run sees the journal-replayed ones and this run's —
// keyed by input index, so the appended summary always covers the whole
// grid even on a resume that re-emits nothing.
func runWorkBatch(ctx context.Context, b work.Batch, single bool, o options, fr *grid.Frontier, prog *cli.Progress, stdout, stderr io.Writer) int {
	start := time.Now()
	man := cli.Manifest{Tool: "scenario", Kind: b.Kind(), Fidelity: work.FidelityOf(b), Items: b.Len(), ItemsRun: b.Len()}
	if hash, err := b.Hash(); err == nil {
		man.BatchSHA256 = hash
	}
	var runErr error
	defer func() {
		man.Finish(start, nil, runErr)
		cli.EmitManifest(stderr, man)
	}()
	opts := work.Options{Workers: o.workers, Progress: prog.Hook(), Metrics: o.metrics}
	if o.checkpoint != "" {
		jr, done, err := work.OpenJournal(o.checkpoint, b, o.resume)
		if err != nil {
			runErr = err
			fmt.Fprintln(stderr, "scenario:", err)
			return 1
		}
		defer jr.Close()
		if len(done) > 0 {
			fmt.Fprintf(stderr, "scenario: resuming, %d/%d scenarios already journaled\n", len(done), b.Len())
		}
		opts.Journal, opts.Done = jr, done
		man.ItemsResumed = len(done)
		man.ItemsRun = b.Len() - len(done)
	}
	if o.stream {
		var frErr error
		if fr != nil {
			opts.Observe = func(i int, line json.RawMessage) {
				if err := fr.Add(i, line); err != nil && frErr == nil {
					frErr = err
				}
			}
		}
		if err := work.Run(ctx, b, opts, stdout); err != nil {
			runErr = err
			return cli.Report("scenario", err, prog, stderr)
		}
		if frErr != nil {
			runErr = frErr
			fmt.Fprintln(stderr, "scenario:", frErr)
			return 1
		}
		if fr != nil {
			summary, err := fr.SummaryLine()
			if err != nil {
				runErr = err
				fmt.Fprintln(stderr, "scenario:", err)
				return 1
			}
			if _, err := fmt.Fprintf(stdout, "%s\n", summary); err != nil {
				runErr = err
				fmt.Fprintln(stderr, "scenario:", err)
				return 1
			}
		}
		return 0
	}
	lines, err := work.Collect(ctx, b, opts)
	if err != nil {
		runErr = err
		return cli.Report("scenario", err, prog, stderr)
	}
	var frontierJSON []byte
	if fr != nil {
		for i, line := range lines {
			if err := fr.Add(i, line); err != nil {
				runErr = err
				fmt.Fprintln(stderr, "scenario:", err)
				return 1
			}
		}
		if frontierJSON, err = json.Marshal(fr.Points()); err != nil {
			runErr = err
			fmt.Fprintln(stderr, "scenario:", err)
			return 1
		}
	}
	out, err := renderBatchDoc(lines, single, frontierJSON)
	if err != nil {
		runErr = err
		fmt.Fprintln(stderr, "scenario:", err)
		return 1
	}
	fmt.Fprintln(stdout, out)
	return 0
}

// refineProgress adapts the two-phase refine run to the CLI ticker: each
// phase reports under its own label ("scenario [analytical]: 12/4096
// points", then "scenario [refine]: 3/17 points"), so an operator watching
// stderr sees which fidelity rung is running and how far along it is.
func refineProgress(w io.Writer) func(phase string, done, total int) {
	var mu sync.Mutex
	phases := map[string]*cli.Progress{}
	return func(phase string, done, total int) {
		mu.Lock()
		p, ok := phases[phase]
		if !ok {
			p = cli.NewProgress("scenario ["+phase+"]", "points", w)
			phases[phase] = p
		}
		mu.Unlock()
		p.Hook()(done, total)
	}
}

// renderBatchDoc reassembles the driver's NDJSON lines into the buffered
// document: a single config's one result, or the {"scenarios": [...]}
// document with an optional "frontier" field when a grid run computed
// one. The result is byte-identical to marshalling the result (or the
// results array) with two-space indentation: MarshalIndent is Marshal
// followed by Indent, and each driver line is already the compact marshal
// of its result.
func renderBatchDoc(lines [][]byte, single bool, frontier []byte) (string, error) {
	var compact bytes.Buffer
	if single {
		compact.Write(lines[0])
	} else {
		compact.WriteString(`{"scenarios":[`)
		for i, line := range lines {
			if i > 0 {
				compact.WriteByte(',')
			}
			compact.Write(line)
		}
		compact.WriteString(`]`)
		if frontier != nil {
			compact.WriteString(`,"frontier":`)
			compact.Write(frontier)
		}
		compact.WriteString(`}`)
	}
	var out bytes.Buffer
	if err := json.Indent(&out, compact.Bytes(), "", "  "); err != nil {
		return "", err
	}
	return out.String(), nil
}
