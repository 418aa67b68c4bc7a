// Command sweepd distributes a sweep across processes and machines:
// `sweepd serve` coordinates — it splits the workload into units, leases
// them to workers over HTTP, and writes the reassembled NDJSON results to
// stdout in input order, byte-identical to what the sequential run would
// emit — and `sweepd work` executes: it leases units from a coordinator,
// rebuilds them through the work registry, runs them, and reports the
// result lines, until the batch is done. Run one serve and as many work
// processes as you have cores and machines.
//
// The workload is any registered payload kind. -f (or stdin) takes any
// document cmd/scenario reads, with the same meaning (grid.LoadWork): a
// single scenario config (run as a batch of one), a scenario batch, or a
// design-space grid — the grid expands into its full factorial point
// product, and each work unit carries only the spec plus a point range,
// so the fleet re-expands deterministically instead of shipping every
// config. -fidelity fills every document config that names no fidelity,
// exactly as in cmd/scenario, so a checkpoint either CLI writes resumes
// and replays under the other. With -experiments the units are
// experiments emitting the same {"id","ascii","csv"} frames as `figures
// -stream` (-ids names registry and extension IDs alike, resolved by the
// same exp.Select rule as `figures -only`).
//
// Every unit is self-contained: an experiments unit names its artifact
// IDs and the environment scale (accesses/seed/MinR2/fidelity — the scale
// the batch hash pins) it runs at, so `sweepd work` takes no scale flags
// and one fleet runs batches of any scale.
//
// The coordinator is crash-tolerant on both sides: a worker that dies
// mid-unit loses only its lease (the unit is re-leased when the lease
// expires), and with -checkpoint serve journals every completed line to
// that file so `serve -resume` after a kill completes exactly the
// remainder — against the same journal format `scenario -checkpoint` and
// `figures -checkpoint` write. `sweepd journal` reassembles the complete
// ordered result set from such a journal, because the journal — not any
// one run's stdout — is the authoritative record across restarts.
//
// Both forms of serve run the same service (dist.Service): a one-shot
// serve is that service holding its one batch over a store of one journal
// (the -checkpoint file, or a scratch file removed on exit). `sweepd
// serve -store DIR` runs it long-lived instead: batches arrive over POST
// /v1/batches (`sweepd submit`, which takes the same workload flags as
// serve and streams the ordered results back with -results), any number
// of them queue and run concurrently on one worker fleet, and every
// completed line lands in a content-addressed result store under DIR — so
// resubmitting an identical batch (or one overlapping a prior batch on
// individual items) is served from cache without re-executing anything,
// and restarting the service re-queues every stored batch exactly where
// it left off. See docs/wire-protocol.md for the batch API and
// docs/operations.md for the store layout.
//
// With -token on both sides the wire protocol requires `Authorization:
// Bearer <token>` (401 otherwise) — the minimum gate before a coordinator
// listens beyond one trusted host; put TLS in front for untrusted
// networks.
//
// SIGINT/SIGTERM end any subcommand cleanly (exit 130); -timeout bounds a
// run the same way.
//
// Usage:
//
//	sweepd serve -f examples/scenarios.json -addr :8080
//	sweepd serve -f big.json -units 64 -checkpoint big.journal -resume > results.ndjson
//	sweepd serve -f examples/gridsweep/spec.json -units 32 > grid.ndjson
//	sweepd serve -f examples/gridsweep/spec.json -fidelity analytical -checkpoint grid.journal -resume
//	sweepd serve -experiments -ids fig1,fig2 -token s3cret
//	sweepd serve -store /var/lib/sweepd -addr :8080
//	sweepd work -coordinator http://host:8080
//	sweepd work -coordinator http://host:8080 -workers 4 -token s3cret -progress
//	sweepd submit -coordinator http://host:8080 -f examples/scenarios.json -results > results.ndjson
//	sweepd submit -coordinator http://host:8080 -f spec.json -wait
//	sweepd journal -f big.json -checkpoint big.journal > results.ndjson
//	sweepd journal -f examples/gridsweep/spec.json -checkpoint grid.journal > grid.ndjson
//	sweepd journal -stat -checkpoint big.journal
//
// Observability: the coordinator serves a fleet-wide operator probe on
// GET /v1/status (per-worker liveness, lease ages, straggler flags,
// throughput and ETA) and Prometheus metrics on GET /metrics, both behind
// -token; -metrics-addr on serve or work additionally serves the
// process's registry plus /debug/pprof on a separate, unauthenticated
// address. serve and work each emit a one-line JSON manifest to stderr
// when they end — batch hash, item counts, wall time, items/sec, outcome.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cli"
	"repro/internal/dist"
	"repro/internal/dist/journal"
	"repro/internal/dist/store"
	"repro/internal/exp"
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

// run dispatches the subcommands; it is the testable entry point.
func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	return cli.Dispatch(ctx, "sweepd", []cli.Command{
		{Name: "serve", Summary: "coordinate a distributed sweep and emit ordered NDJSON results", Run: runServe},
		{Name: "work", Summary: "lease and execute work units from a coordinator", Run: runWork},
		{Name: "submit", Summary: "submit a batch to a `serve -store` service and optionally stream its results", Run: runSubmit},
		{Name: "journal", Summary: "reassemble the ordered NDJSON result set from a checkpoint journal", Run: runJournal},
	}, args, stdin, stdout, stderr)
}

// inputOptions select the workload — the flags shared by serve and
// journal, which must both resolve the exact batch (and, for experiments,
// the exact environment scale) a checkpoint pins.
type inputOptions struct {
	file        string
	experiments bool
	ids         string
	quick       bool
	accesses    int
	fidelity    string
}

// registerInputFlags wires the workload-selection flags.
func registerInputFlags(fs *flag.FlagSet, o *inputOptions) {
	fs.StringVar(&o.file, "f", "", "workload document as cmd/scenario reads it: a scenario config, a batch, or a grid spec (default stdin)")
	fs.BoolVar(&o.experiments, "experiments", false, "work on experiment units instead of a workload document")
	fs.StringVar(&o.ids, "ids", "", "comma-separated experiment IDs with -experiments, registry or extension (default: the whole registry)")
	fs.BoolVar(&o.quick, "quick", false, "pin the experiments batch to the quick environment scale (match any figures checkpoint)")
	fs.IntVar(&o.accesses, "accesses", 0, "pin the experiments batch to this trace length (0 = profile default)")
	fs.StringVar(&o.fidelity, "fidelity", "", `miss-rate fidelity: the default for document configs that do not set one, or the experiments batch's: "trace" (default) or "analytical"`)
}

// experimentsEnv resolves the environment scale the input flags declare —
// the scale the batch hash pins and its units carry, which must match any
// `figures -checkpoint` journal being resumed or replayed.
func experimentsEnv(o inputOptions) *exp.Env {
	env := exp.NewEnv()
	if o.quick {
		env = exp.NewQuickEnv()
	}
	if o.accesses > 0 {
		env.Accesses = o.accesses
	}
	env.Fidelity = o.fidelity
	return env
}

// loadWorkBatch resolves the selected workload into a work.Batch plus the
// item noun for diagnostics. A document (-f, or stdin) means what it means
// to `scenario`: grid.LoadWork reads it under the -fidelity default.
func loadWorkBatch(o inputOptions, stdin io.Reader) (work.Batch, string, error) {
	if o.experiments {
		// -ids resolves exactly as `figures -only` does, so a `figures
		// -checkpoint` journal of the same IDs replays here verbatim.
		exps, err := exp.Select(o.ids, false)
		if err != nil {
			return nil, "", err
		}
		ids := make([]string, len(exps))
		for i, x := range exps {
			ids[i] = x.ID
		}
		b, err := exp.NewBatch(ids, experimentsEnv(o))
		return b, "experiments", err
	}
	var data []byte
	var err error
	if o.file != "" {
		data, err = os.ReadFile(o.file)
	} else {
		data, err = io.ReadAll(stdin)
	}
	if err != nil {
		return nil, "", err
	}
	b, _, err := grid.LoadWork(data, o.fidelity)
	if _, ok := b.(*grid.Batch); ok {
		return b, "points", err
	}
	return b, "scenarios", err
}

// validateInput enforces the workload-flag pairing shared by serve and
// journal; false means a usage error was reported. Every mispairing is a
// hard error — silently ignoring a flag the operator named would run (or
// hash) a different workload than they asked for.
func validateInput(o inputOptions, stderr io.Writer) bool {
	switch {
	case !profile.ValidFidelity(o.fidelity):
		fmt.Fprintf(stderr, "sweepd: unknown -fidelity %q (want %q or %q)\n",
			o.fidelity, profile.FidelityTrace, profile.FidelityAnalytical)
		return false
	case o.ids != "" && !o.experiments:
		fmt.Fprintln(stderr, "sweepd: -ids requires -experiments")
		return false
	case (o.quick || o.accesses > 0) && !o.experiments:
		fmt.Fprintln(stderr, "sweepd: -quick/-accesses require -experiments (scenario documents carry their own accesses)")
		return false
	case o.file != "" && o.experiments:
		fmt.Fprintln(stderr, "sweepd: -f does not apply to -experiments (use -ids to select artifacts)")
		return false
	}
	return true
}

// serveOptions are the coordinator flags.
type serveOptions struct {
	input       inputOptions
	addr        string
	units       int
	lease       time.Duration
	checkpoint  string
	resume      bool
	store       string
	token       string
	progress    bool
	timeout     time.Duration
	metricsAddr string
}

func runServe(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o serveOptions
	registerInputFlags(fs, &o.input)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address for the worker protocol")
	fs.IntVar(&o.units, "units", 0, "work units to split the batch into (0 = GOMAXPROCS); more units = finer re-lease granularity")
	fs.DurationVar(&o.lease, "lease", 30*time.Second, "lease TTL; a worker silent this long forfeits its unit")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "journal completed lines to this file")
	fs.BoolVar(&o.resume, "resume", false, "replay the -checkpoint journal and serve only unfinished work")
	fs.StringVar(&o.store, "store", "", "run as a multi-batch service backed by this result-store directory; batches arrive via `sweepd submit`, and restart resumes every stored batch")
	fs.StringVar(&o.token, "token", "", "shared secret; workers must send it as Authorization: Bearer")
	fs.BoolVar(&o.progress, "progress", false, "report per-item completion on stderr")
	fs.DurationVar(&o.timeout, "timeout", 0, "abort the run after this duration (0 = unbounded)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "also serve /metrics and /debug/pprof, unauthenticated, on this address (e.g. 127.0.0.1:9090; empty = off — workers' /metrics on -addr stays token-gated)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.store != "" {
		return runServeStore(ctx, o, stderr)
	}
	if o.resume && o.checkpoint == "" {
		fmt.Fprintln(stderr, "sweepd: -resume requires -checkpoint")
		return 2
	}
	if !validateInput(o.input, stderr) {
		return 2
	}
	ctx, cancel := cli.WithTimeout(ctx, o.timeout)
	defer cancel()

	b, noun, err := loadWorkBatch(o.input, stdin)
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}
	hdr, err := work.Header(b)
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}

	r := &cli.Run{Name: "sweepd", Unit: noun, Ticker: o.progress,
		Manifest: cli.Manifest{Tool: "sweepd serve", Fidelity: work.FidelityOf(b)}}
	return r.Exec(stderr, func() error {
		r.Begin(b)
		// The one-shot is a Service holding this one batch over a store of
		// one journal: the -checkpoint file, or a scratch file removed on
		// exit.
		path := o.checkpoint
		if path == "" {
			dir, err := os.MkdirTemp("", "sweepd-serve-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			path = filepath.Join(dir, "batch.journal")
		}
		// resumed holds the entries the journal held before admission; they
		// are not written again, so a resumed run's output is exactly the
		// remainder.
		var resumed []journal.Entry
		if o.resume {
			resumed, err = journal.Replay(path, hdr)
			if err != nil && !errors.Is(err, os.ErrNotExist) {
				return err
			}
			if len(resumed) > 0 {
				fmt.Fprintf(stderr, "sweepd: resuming, %d/%d %s already journaled\n", len(resumed), b.Len(), noun)
			}
		} else if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			// Without -resume an existing checkpoint starts fresh.
			return err
		}
		r.Manifest.ItemsResumed = len(resumed)
		r.Manifest.ItemsRun = b.Len() - len(resumed)

		reg := obs.NewRegistry()
		sctx, stopService := context.WithCancel(ctx)
		defer stopService()
		svc, err := dist.NewService(sctx, dist.ServiceConfig{
			Store: store.OpenFile(path), Units: o.units, LeaseTTL: o.lease, Metrics: reg,
		})
		if err != nil {
			return err
		}
		defer svc.Close()
		st, _, err := svc.Submit(b)
		if err != nil {
			return err
		}
		// The debug listener serves the service's own registry — the same
		// families the token-gated /metrics on -addr exposes — plus pprof,
		// on an address the operator keeps off the worker network.
		if _, err := r.ServeMetrics(o.metricsAddr, reg); err != nil {
			return err
		}
		srv, addr, err := listen(o.addr, o.token, svc)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "sweepd: serving %d %s on http://%s\n", b.Len(), noun, addr)

		hook, emitted, total := r.Progress.Hook(), 0, b.Len()-len(resumed)
		err = svc.Results(ctx, st.ID, func(i int, line []byte) error {
			// Results yields indices in order, as resumed is sorted.
			if len(resumed) > 0 && resumed[0].I == i {
				resumed = resumed[1:]
				return nil
			}
			// The full slice expression makes append copy: line may share
			// backing storage with a live result body.
			if _, err := stdout.Write(append(line[:len(line):len(line)], '\n')); err != nil {
				return err
			}
			emitted++
			hook(emitted, total)
			return nil
		}, nil)
		// The batch is over: from here every lease answers done, so workers
		// exit cleanly. Shutdown lets requests already in flight — the last
		// result upload among them — get their responses before the
		// listener goes; one that outlasts the grace period is cut by the
		// deferred Close.
		stopService()
		graceCtx, cancelGrace := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancelGrace()
		_ = srv.Shutdown(graceCtx)
		return err
	})
}

// listen serves svc's API, behind the token gate, on addr. The accept
// loop's ErrServerClosed after the caller's Close is expected: the
// batch's verdict, not the server's, is a run's outcome.
func listen(addr, token string, svc *dist.Service) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: dist.RequireToken(token, svc.Handler())}
	//lint:allow nofanout HTTP accept loop must not block the result drain; lifecycle is owned by the caller's Close, not the sweep engine
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr(), nil
}

// runServeStore is `sweepd serve -store DIR`: the multi-batch service.
// Unlike one-shot serve there is no workload on the command line —
// batches arrive over POST /v1/batches (`sweepd submit`) and their
// results live in the store, so the process emits no NDJSON on stdout
// and runs until a signal (or -timeout) stops it. Every batch the store
// has ever admitted is re-queued on start, so a crashed or restarted
// service resumes exactly where the store left off.
func runServeStore(ctx context.Context, o serveOptions, stderr io.Writer) int {
	switch {
	case o.input != inputOptions{}:
		fmt.Fprintln(stderr, "sweepd: -store mode takes no workload flags (-f/-experiments/-ids/-quick/-accesses/-fidelity); submit batches with `sweepd submit`")
		return 2
	case o.checkpoint != "" || o.resume:
		fmt.Fprintln(stderr, "sweepd: -store replaces -checkpoint/-resume (the store journals every batch; restart resumes automatically)")
		return 2
	}
	ctx, cancel := cli.WithTimeout(ctx, o.timeout)
	defer cancel()

	st, err := store.Open(o.store)
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}
	defer st.Close()
	r := &cli.Run{Name: "sweepd", Manifest: cli.Manifest{Tool: "sweepd serve"}}
	return r.Exec(stderr, func() error {
		reg := obs.NewRegistry()
		svc, err := dist.NewService(ctx, dist.ServiceConfig{
			Store: st, Units: o.units, LeaseTTL: o.lease, Metrics: reg,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(stderr, "sweepd: "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		defer svc.Close()
		if active, complete := svc.Restore(); active+complete > 0 {
			fmt.Fprintf(stderr, "sweepd: restored %d batches from %s (%d with work remaining)\n",
				active+complete, o.store, active)
		}
		if _, err := r.ServeMetrics(o.metricsAddr, reg); err != nil {
			return err
		}
		srv, addr, err := listen(o.addr, o.token, svc)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "sweepd: serving batch queue on http://%s (store %s)\n", addr, o.store)

		<-ctx.Done()
		// A signal (or -timeout) is the service's normal shutdown;
		// summarize what this process did in the manifest.
		status := svc.Status()
		for _, b := range status.Batches {
			r.Manifest.Items += b.N
			r.Manifest.ItemsRun += b.ItemsExecuted
			r.Manifest.ItemsResumed += b.ItemsCachedJournal + b.ItemsCachedIndex
		}
		fmt.Fprintf(stderr, "sweepd: service stopped, store %s holds %d batches\n", o.store, status.Store.Batches)
		return nil
	})
}

// submitOptions are the `sweepd submit` flags.
type submitOptions struct {
	input       inputOptions
	coordinator string
	token       string
	wait        bool
	results     bool
	timeout     time.Duration
}

// runSubmit is `sweepd submit`: the client of a `serve -store` service.
// It resolves a workload exactly as serve does (same flags, same hashes),
// posts it to the service, and acknowledges the batch ID and cache
// attribution on stderr. With -results it then streams the batch's
// input-ordered NDJSON to stdout — byte-identical to the sequential run,
// whether the lines were executed now or served from the store. With
// -wait it polls until the batch reaches a terminal state. Either way the
// exit status reflects the batch: 0 done, 1 failed or cancelled.
func runSubmit(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o submitOptions
	registerInputFlags(fs, &o.input)
	fs.StringVar(&o.coordinator, "coordinator", "", "service base URL, e.g. http://host:8080 (required)")
	fs.StringVar(&o.token, "token", "", "shared secret sent as Authorization: Bearer (match the service's -token)")
	fs.BoolVar(&o.wait, "wait", false, "poll until the batch reaches a terminal state")
	fs.BoolVar(&o.results, "results", false, "stream the batch's ordered NDJSON results to stdout (implies waiting for completion)")
	fs.DurationVar(&o.timeout, "timeout", 0, "give up after this duration (0 = unbounded)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.coordinator == "" {
		fmt.Fprintln(stderr, "sweepd: submit requires -coordinator")
		return 2
	}
	if !validateInput(o.input, stderr) {
		return 2
	}
	ctx, cancel := cli.WithTimeout(ctx, o.timeout)
	defer cancel()

	b, noun, err := loadWorkBatch(o.input, stdin)
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}
	c := &dist.Client{URL: o.coordinator, Token: o.token}
	st, err := c.Submit(ctx, b)
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}
	cached := st.ItemsCachedJournal + st.ItemsCachedIndex
	fmt.Fprintf(stderr, "sweepd: batch %s: %d %s, %d cached, state %s\n",
		st.ID, st.N, noun, cached, st.State)

	if o.results {
		if err := c.Results(ctx, st.ID, stdout); err != nil {
			fmt.Fprintln(stderr, "sweepd:", err)
			return 1
		}
	}
	if o.results || o.wait {
		final, err := c.Wait(ctx, st.ID)
		if err != nil {
			fmt.Fprintln(stderr, "sweepd:", err)
			return 1
		}
		if final.State != dist.BatchDone {
			fmt.Fprintf(stderr, "sweepd: batch %s %s", final.ID, final.State)
			if final.Error != "" {
				fmt.Fprintf(stderr, ": %s", final.Error)
			}
			fmt.Fprintln(stderr)
			return 1
		}
		fmt.Fprintf(stderr, "sweepd: batch %s done (%d executed, %d cached)\n",
			final.ID, final.ItemsExecuted, final.ItemsCachedJournal+final.ItemsCachedIndex)
	}
	return 0
}

// workOptions are the worker flags.
type workOptions struct {
	coordinator string
	id          string
	workers     int
	poll        time.Duration
	token       string
	progress    bool
	timeout     time.Duration
	metricsAddr string
}

func runWork(ctx context.Context, args []string, _ io.Reader, _, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd work", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o workOptions
	fs.StringVar(&o.coordinator, "coordinator", "", "coordinator base URL, e.g. http://host:8080 (required)")
	fs.StringVar(&o.id, "id", "", "worker id (default hostname-pid)")
	fs.IntVar(&o.workers, "workers", 0, "concurrent items within a unit (0 = GOMAXPROCS)")
	fs.DurationVar(&o.poll, "poll", 200*time.Millisecond, "delay between lease attempts when the coordinator has nothing free")
	fs.StringVar(&o.token, "token", "", "shared secret sent as Authorization: Bearer (match the coordinator's -token)")
	fs.BoolVar(&o.progress, "progress", false, "report per-unit completion on stderr")
	fs.DurationVar(&o.timeout, "timeout", 0, "stop working after this duration (0 = unbounded)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve this worker's /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9091; empty = off)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.coordinator == "" {
		fmt.Fprintln(stderr, "sweepd: work requires -coordinator")
		return 2
	}
	if o.id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		o.id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	ctx, cancel := cli.WithTimeout(ctx, o.timeout)
	defer cancel()

	r := &cli.Run{Name: "sweepd", Manifest: cli.Manifest{Tool: "sweepd work"}}
	return r.Exec(stderr, func() error {
		reg, err := r.ServeMetrics(o.metricsAddr, nil)
		if err != nil {
			return err
		}
		// A worker does not know the batch size; its manifest counts what
		// this process executed, accumulated as units are reported. OnUnit
		// runs on the worker's single lease loop, so plain fields are safe.
		w := &dist.Worker{
			Coordinator: o.coordinator,
			ID:          o.id,
			Exec:        dist.RegistryExecutor(o.workers, reg),
			Poll:        o.poll,
			Token:       o.token,
		}
		w.OnUnit = func(u dist.Unit) {
			r.Manifest.Kind = u.Kind
			r.Manifest.Items += u.Range.Len()
			r.Manifest.ItemsRun += u.Range.Len()
			if o.progress {
				fmt.Fprintf(stderr, "sweepd: %s finished unit %d (items %d-%d)\n", o.id, u.ID, u.Range.Lo, u.Range.Hi-1)
			}
		}
		err = w.Run(ctx)
		switch {
		case errors.Is(err, dist.ErrCoordinatorGone):
			// The serve process exits the moment the last line is emitted;
			// an idle worker discovering that is the normal end of a sweep.
			fmt.Fprintf(stderr, "sweepd: %s: coordinator gone, assuming the sweep ended\n", o.id)
			return nil
		case err == nil:
			fmt.Fprintf(stderr, "sweepd: %s done\n", o.id)
		}
		return err
	})
}

// runJournal is `sweepd journal` — journal cat: it replays a checkpoint
// journal read-only, verifies it pins exactly the given workload (kind,
// content hash, item count), and writes the journaled NDJSON lines to
// stdout in input order. The journal, not any one run's stdout, is the
// authoritative record of a checkpointed sweep across restarts; this is
// how the complete result set is recovered from it.
//
// With -stat it instead prints a one-line JSON completion summary (kind,
// batch hash, items done/total, torn-tail flag) without reassembling —
// or even reading into memory — any result lines, and without needing
// the input batch at all: the summary describes whatever the journal
// itself pins. Exit status 0 when complete, 1 when not (so scripts can
// poll a checkpoint directly).
func runJournal(_ context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd journal", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var in inputOptions
	registerInputFlags(fs, &in)
	checkpoint := fs.String("checkpoint", "", "journal file to read (required)")
	partial := fs.Bool("partial", false, "exit 0 even when the journal is incomplete (emit what is journaled)")
	stat := fs.Bool("stat", false, "print a JSON completion summary instead of the result lines (no input batch needed)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *checkpoint == "" {
		fmt.Fprintln(stderr, "sweepd: journal requires -checkpoint")
		return 2
	}
	if *stat {
		st, err := journal.Stat(*checkpoint)
		if err != nil {
			fmt.Fprintln(stderr, "sweepd:", err)
			return 1
		}
		line, err := json.Marshal(st)
		if err != nil {
			fmt.Fprintln(stderr, "sweepd:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !st.Complete && !*partial {
			return 1
		}
		return 0
	}
	if !validateInput(in, stderr) {
		return 2
	}
	b, noun, err := loadWorkBatch(in, stdin)
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}
	hdr, err := work.Header(b)
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}
	done, err := journal.Replay(*checkpoint, hdr)
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}
	for _, e := range done {
		if _, err := stdout.Write(append(e.Line, '\n')); err != nil {
			fmt.Fprintln(stderr, "sweepd:", err)
			return 1
		}
	}
	if len(done) < b.Len() {
		fmt.Fprintf(stderr, "sweepd: journal incomplete: %d/%d %s journaled\n", len(done), b.Len(), noun)
		if !*partial {
			return 1
		}
	}
	return 0
}
