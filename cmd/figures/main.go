// Command figures regenerates every figure and table of the paper's
// evaluation and writes them as ASCII (stdout) and CSV files. Experiments
// fan out across the sweep engine; output is identical at any worker count.
//
// With -stream, artifacts are emitted as NDJSON (one {"id","ascii","csv"}
// object per line, in registry order, written as each experiment
// completes) instead of the buffered ASCII report — the same frames a
// distributed `sweepd serve -experiments` run emits. With -checkpoint
// (requires -stream), every completed line is also appended to a journal
// keyed by a content hash of the selected artifact set; adding -resume
// replays that journal on startup, skips (and does not re-emit) finished
// experiments, and refuses to resume against a different selection — a
// killed run restarted with the same command line completes exactly the
// remainder. SIGINT/SIGTERM cancel cleanly (partial-progress note on
// stderr, exit 130); -timeout bounds the run the same way.
//
// Usage:
//
//	figures                 # full-scale run (1M accesses per workload)
//	figures -quick          # shorter simulations
//	figures -outdir results # also write one CSV per artifact
//	figures -plot           # include coarse terminal plots for figures
//	figures -only fig2      # compute and print a single artifact
//	figures -only fig1,fig2 # or several (registry order)
//	figures -list           # print artifact IDs without running anything
//	figures -workers 1      # run experiments one at a time
//	figures -quick -stream  # NDJSON artifact stream on stdout
//	figures -stream -checkpoint run.journal -resume   # crash-tolerant run
//	figures -progress       # per-experiment completion ticker on stderr
//	figures -timeout 30m    # bound the whole run
//	figures -metrics-addr 127.0.0.1:9090   # /metrics + /debug/pprof while running
//
// Every run (except -list) emits a one-line JSON manifest to stderr when
// it ends — batch hash, item counts, wall time, items/sec, outcome — so a
// run can be diagnosed after the fact from its captured stderr.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/work"
)

func main() {
	ctx, stop := cli.SignalContext()
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: context, flags and IO come from the
// caller and the exit status is returned instead of calling os.Exit.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick       = fs.Bool("quick", false, "use shorter workload simulations")
		accesses    = fs.Int("accesses", 0, "override the trace length per (workload, L1 size) simulation (0 = profile default)")
		fidelity    = fs.String("fidelity", "", `miss-matrix fidelity: "trace" (simulate, the default) or "analytical" (stack-distance fast path)`)
		outdir      = fs.String("outdir", "", "directory for CSV output (created if missing)")
		plot        = fs.Bool("plot", false, "render coarse ASCII plots for figures")
		only        = fs.String("only", "", "run only the artifacts with these comma-separated IDs")
		list        = fs.Bool("list", false, "list artifact IDs and exit")
		ext         = fs.Bool("ext", false, "also run the extension/ablation experiments")
		workers     = fs.Int("workers", 0, "concurrent experiments (0 = GOMAXPROCS, 1 = one at a time)")
		stream      = fs.Bool("stream", false, "emit artifacts as NDJSON, one line per experiment as it completes")
		checkpoint  = fs.String("checkpoint", "", "journal completed artifacts to this file (requires -stream)")
		resume      = fs.Bool("resume", false, "replay the -checkpoint journal and run only unfinished experiments")
		progress    = fs.Bool("progress", false, "report per-experiment completion on stderr")
		timeout     = fs.Duration("timeout", 0, "abort the run after this duration (0 = unbounded)")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address for the run's duration (e.g. 127.0.0.1:9090; empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case !profile.ValidFidelity(*fidelity):
		fmt.Fprintf(stderr, "figures: unknown -fidelity %q (want %q or %q)\n",
			*fidelity, profile.FidelityTrace, profile.FidelityAnalytical)
		return 2
	case *resume && *checkpoint == "":
		fmt.Fprintln(stderr, "figures: -resume requires -checkpoint")
		return 2
	case *checkpoint != "" && !*stream:
		fmt.Fprintln(stderr, "figures: -checkpoint requires -stream (the journal records NDJSON lines)")
		return 2
	case *checkpoint != "" && *ext:
		fmt.Fprintln(stderr, "figures: -checkpoint does not cover -ext artifacts (they are outside the registry batch)")
		return 2
	case *stream && *plot:
		// ASCII plots have no NDJSON field; refuse rather than drop
		// them silently.
		fmt.Fprintln(stderr, "figures: -plot is not available with -stream (the ascii field carries the table form)")
		return 2
	}
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()

	exps := exp.Experiments()
	if *list {
		for _, x := range exps {
			fmt.Fprintln(stdout, x.ID)
		}
		return 0
	}
	var onlyIDs []string
	onlySet := make(map[string]bool)
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			onlyIDs = append(onlyIDs, id)
			onlySet[id] = true
		}
	}
	if len(onlySet) > 0 {
		var sel []exp.Experiment
		matched := make(map[string]bool)
		for _, x := range exps {
			if onlySet[x.ID] {
				sel = append(sel, x)
				matched[x.ID] = true
			}
		}
		// Extension artifacts are not in the registry; with -ext an ID may
		// still match one of them, so unmatched IDs are only fatal when
		// extensions are off. Every ID is checked: silently dropping one
		// typo'd entry of a multi-ID selection would under-run the request
		// (and, with -checkpoint, pin the reduced selection into the
		// journal hash).
		if !*ext {
			for _, id := range onlyIDs {
				if !matched[id] {
					fmt.Fprintf(stderr, "figures: unknown artifact ID %q (try -list)\n", id)
					return 1
				}
			}
		}
		exps = sel
	}

	env := exp.NewEnv()
	if *quick {
		env = exp.NewQuickEnv()
	}
	if *accesses > 0 {
		env.Accesses = *accesses
	}
	env.Fidelity = *fidelity
	env.Workers = *workers
	var tickerW io.Writer
	if *progress {
		tickerW = stderr
	}
	prog := cli.NewProgress("figures", "experiments", tickerW)
	env.Progress = prog.Hook()

	// Skip the extension bundle when -only already matched a registry
	// artifact: extensions are built all-or-nothing, and computing them
	// just to filter their output away defeats -only's purpose.
	if *ext && len(onlySet) > 0 && len(exps) > 0 {
		*ext = false
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintln(stderr, "figures:", err)
			return 1
		}
	}
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		maddr, stopMetrics, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(stderr, "figures:", err)
			return 1
		}
		defer stopMetrics()
		fmt.Fprintf(stderr, "figures: metrics on http://%s/metrics\n", maddr)
	}

	start := time.Now()
	man := cli.Manifest{Tool: "figures", Fidelity: *fidelity, Items: len(exps), ItemsRun: len(exps)}
	var runErr error
	defer func() {
		man.Finish(start, nil, runErr)
		cli.EmitManifest(stderr, man)
	}()
	if *stream {
		so := streamOpts{outdir: *outdir, ext: *ext, checkpoint: *checkpoint, resume: *resume, workers: *workers, metrics: reg}
		code, err := runStream(ctx, env, exps, so, prog, stdout, stderr, start, &man)
		runErr = err
		return code
	}

	arts, err := env.RunExperimentsCtx(ctx, exps)
	if err != nil {
		runErr = err
		return cli.Report("figures", err, prog, stderr)
	}
	if *ext {
		extra, err := env.ExtensionsCtx(ctx)
		if err != nil {
			runErr = err
			return cli.Report("figures", err, prog, stderr)
		}
		arts = append(arts, extra...)
		man.Items += len(extra)
		man.ItemsRun += len(extra)
	}

	printed := 0
	for _, a := range arts {
		if len(onlySet) > 0 && !onlySet[a.ID] {
			continue
		}
		printed++
		fmt.Fprintln(stdout, a.Render())
		if *plot && a.Figure != nil {
			fmt.Fprintln(stdout, a.Figure.Plot(72, 24))
		}
		if *outdir != "" {
			path := filepath.Join(*outdir, a.ID+".csv")
			if err := os.WriteFile(path, []byte(a.CSV()), 0o644); err != nil {
				fmt.Fprintln(stderr, "figures:", err)
				return 1
			}
			fmt.Fprintf(stdout, "  [wrote %s]\n\n", path)
		}
	}
	if len(onlySet) > 0 && printed == 0 {
		fmt.Fprintf(stderr, "figures: unknown artifact ID %q (try -list)\n", *only)
		return 1
	}
	fmt.Fprintf(stdout, "regenerated %d artifacts in %v\n", printed, time.Since(start).Round(time.Millisecond))
	return 0
}

// streamOpts carries the flags runStream honors alongside the NDJSON
// lines.
type streamOpts struct {
	outdir     string // also write one CSV per artifact, as in buffered mode
	ext        bool   // stream the extension bundle after the registry
	checkpoint string // journal path ("" = no checkpointing)
	resume     bool   // replay the journal before running
	workers    int    // driver fan-out

	// metrics, non-nil when -metrics-addr serves a registry, is handed to
	// the work driver so the debug listener exposes live run metrics.
	metrics *obs.Registry
}

// runStream emits artifacts as NDJSON on stdout as they complete, keeping
// stdout machine-consumable (the run summary goes to stderr). The
// selection runs as an experiment work batch through the unified driver,
// which owns ordering, backpressure, and — with so.checkpoint — the
// journal-before-emit crash recovery shared with `scenario -checkpoint`
// and `sweepd serve -checkpoint`. A write error (e.g. a broken pipe)
// cancels the remaining experiments. With so.ext the extension artifacts
// follow the registry stream, in bundle order; with so.outdir each
// artifact's CSV is also written as it lands. man is the run's manifest,
// filled with the batch identity and resume split as they become known
// (the caller emits it); the returned error is the run's fatal error for
// the manifest outcome, nil on success.
func runStream(ctx context.Context, env *exp.Env, exps []exp.Experiment, so streamOpts, prog *cli.Progress, stdout, stderr io.Writer, start time.Time, man *cli.Manifest) (int, error) {
	sink := &artifactSink{w: stdout, outdir: so.outdir}
	if len(exps) > 0 {
		ids := make([]string, len(exps))
		for i, x := range exps {
			ids[i] = x.ID
		}
		wb, err := exp.NewBatch(ids, env)
		if err != nil {
			fmt.Fprintln(stderr, "figures:", err)
			return 1, err
		}
		man.Kind = wb.Kind()
		if hash, err := wb.Hash(); err == nil {
			man.BatchSHA256 = hash
		}
		opts := work.Options{Workers: so.workers, Progress: prog.Hook(), Metrics: so.metrics}
		if so.checkpoint != "" {
			jr, done, err := work.OpenJournal(so.checkpoint, wb, so.resume)
			if err != nil {
				fmt.Fprintln(stderr, "figures:", err)
				return 1, err
			}
			defer jr.Close()
			if len(done) > 0 {
				fmt.Fprintf(stderr, "figures: resuming, %d/%d experiments already journaled\n", len(done), wb.Len())
				// Re-write the replayed artifacts' CSV sidecars: the crash
				// may have landed between the journal append and the
				// sidecar write, and a resumed run never re-runs those
				// indices — the journal line is the only place the CSV
				// still exists.
				if so.outdir != "" {
					for _, e := range done {
						if err := writeSidecar(so.outdir, e.Line); err != nil {
							fmt.Fprintln(stderr, "figures:", err)
							return 1, err
						}
					}
				}
			}
			opts.Journal, opts.Done = jr, done
			man.ItemsResumed = len(done)
			man.ItemsRun = wb.Len() - len(done)
		}
		if err := work.Run(ctx, wb, opts, sink); err != nil {
			return cli.Report("figures", err, prog, stderr), err
		}
	}
	if so.ext {
		extra, err := env.ExtensionsCtx(ctx)
		if err != nil {
			return cli.Report("figures", err, prog, stderr), err
		}
		man.Items += len(extra)
		man.ItemsRun += len(extra)
		for _, a := range extra {
			line, err := a.NDJSONLine()
			if err == nil {
				_, err = sink.Write(append(line, '\n'))
			}
			if err != nil {
				fmt.Fprintln(stderr, "figures:", err)
				return 1, err
			}
		}
	}
	fmt.Fprintf(stderr, "figures: streamed %d artifacts in %v\n", sink.count, time.Since(start).Round(time.Millisecond))
	return 0, nil
}

// artifactSink is the stream's sink: it forwards each NDJSON line to
// stdout, counts emissions for the run summary, and (with outdir) writes
// each artifact's CSV sidecar as its line lands, as buffered mode does.
// The driver hands it exactly one line per Write.
type artifactSink struct {
	w      io.Writer
	outdir string
	count  int
}

func (s *artifactSink) Write(p []byte) (int, error) {
	n, err := s.w.Write(p)
	if err != nil {
		return n, err
	}
	s.count++
	if s.outdir != "" {
		if err := writeSidecar(s.outdir, p); err != nil {
			return n, err
		}
	}
	return n, nil
}

// writeSidecar writes one artifact line's CSV file into outdir.
func writeSidecar(outdir string, line []byte) error {
	var l exp.Line
	if err := json.Unmarshal(line, &l); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outdir, l.ID+".csv"), []byte(l.CSV), 0o644)
}
