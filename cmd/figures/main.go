// Command figures regenerates every figure and table of the paper's
// evaluation and writes them as ASCII (stdout) and CSV files. Experiments
// fan out across the sweep engine; output is identical at any worker count.
//
// The selection is one rule, exp.Select: with no -only it is the paper's
// registry, plus the ten extension/ablation studies when -ext is set;
// -only names registry and extension IDs alike (no -ext needed) and runs
// them in registry-then-extension order, each once. An unknown ID fails
// before anything runs. -list prints the selection (all 22 IDs with
// -ext). Extensions are ordinary experiments: they fan out under
// -workers, count in the -progress ticker, and stream, checkpoint and
// resume like the registry, so a -stream -ext manifest's batch hash pins
// every line the run emitted. A `sweepd work` built before extensions
// were experiments refuses a distributed unit naming one, failing that
// batch loudly; registry-only units run anywhere.
//
// With -stream, artifacts are emitted as NDJSON (one {"id","ascii","csv"}
// object per line, in selection order, written as each experiment
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
//	figures -ext            # the registry plus the extension/ablation studies
//	figures -only tab-ext-area,fig1   # extension IDs select like registry IDs
//	figures -list -ext      # print the selection's IDs without running anything
//	figures -workers 1      # run experiments one at a time
//	figures -quick -stream  # NDJSON artifact stream on stdout
//	figures -stream -checkpoint run.journal -resume   # crash-tolerant run
//	figures -quick -ext -stream -checkpoint ext.journal   # extensions checkpoint too
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
		only        = fs.String("only", "", "run only the artifacts with these comma-separated IDs (registry or extension)")
		list        = fs.Bool("list", false, "list the selected artifact IDs and exit")
		ext         = fs.Bool("ext", false, "add the extension/ablation studies to the default selection")
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
	case *stream && *plot:
		// ASCII plots have no NDJSON field; refuse rather than drop
		// them silently.
		fmt.Fprintln(stderr, "figures: -plot is not available with -stream (the ascii field carries the table form)")
		return 2
	}
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()

	exps, err := exp.Select(*only, *ext)
	if err != nil {
		fmt.Fprintf(stderr, "figures: %v (try -list -ext)\n", err)
		return 1
	}
	if *list {
		for _, x := range exps {
			fmt.Fprintln(stdout, x.ID)
		}
		return 0
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
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintln(stderr, "figures:", err)
			return 1
		}
	}

	r := &cli.Run{Name: "figures", Unit: "experiments", Ticker: *progress,
		Manifest: cli.Manifest{Tool: "figures", Fidelity: *fidelity, Items: len(exps), ItemsRun: len(exps)}}
	return r.Exec(stderr, func() error {
		reg, err := r.ServeMetrics(*metricsAddr, nil)
		if err != nil {
			return err
		}
		env.Progress = r.Progress.Hook()
		if *stream {
			so := streamOpts{outdir: *outdir, checkpoint: *checkpoint, resume: *resume, workers: *workers, metrics: reg}
			return runStream(ctx, r, env, exps, so, stdout, stderr)
		}
		arts, err := env.RunExperimentsCtx(ctx, exps)
		if err != nil {
			return err
		}
		for _, a := range arts {
			fmt.Fprintln(stdout, a.Render())
			if *plot && a.Figure != nil {
				fmt.Fprintln(stdout, a.Figure.Plot(72, 24))
			}
			if *outdir != "" {
				path := filepath.Join(*outdir, a.ID+".csv")
				if err := os.WriteFile(path, []byte(a.CSV()), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "  [wrote %s]\n\n", path)
			}
		}
		fmt.Fprintf(stdout, "regenerated %d artifacts in %v\n", len(arts), r.Elapsed().Round(time.Millisecond))
		return nil
	})
}

// streamOpts carries the flags runStream honors alongside the NDJSON
// lines.
type streamOpts struct {
	outdir     string // also write one CSV per artifact, as in buffered mode
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
// cancels the remaining experiments. With so.outdir each artifact's CSV
// is also written as it lands.
func runStream(ctx context.Context, r *cli.Run, env *exp.Env, exps []exp.Experiment, so streamOpts, stdout, stderr io.Writer) error {
	ids := make([]string, len(exps))
	for i, x := range exps {
		ids[i] = x.ID
	}
	wb, err := exp.NewBatch(ids, env)
	if err != nil {
		return err
	}
	r.Begin(wb)
	opts := work.Options{Workers: so.workers, Progress: r.Progress.Hook(), Metrics: so.metrics}
	if err := r.Checkpoint(so.checkpoint, wb, so.resume, &opts); err != nil {
		return err
	}
	// Re-write the replayed artifacts' CSV sidecars: the crash may have
	// landed between the journal append and the sidecar write, and a
	// resumed run never re-runs those indices — the journal line is the
	// only place the CSV still exists.
	if so.outdir != "" {
		for _, e := range opts.Done {
			if err := writeSidecar(so.outdir, e.Line); err != nil {
				return err
			}
		}
	}
	sink := &artifactSink{w: stdout, outdir: so.outdir}
	if err := work.Run(ctx, wb, opts, sink); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "figures: streamed %d artifacts in %v\n", sink.count, r.Elapsed().Round(time.Millisecond))
	return nil
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
