package cli

import (
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
	"repro/internal/work"
)

// Run is the scaffold a workload command (scenario, figures, sweepd serve
// and work) runs its batch in. Exec owns what every such run does around
// the batch: the diagnostics prefix and the -progress ticker, the
// -metrics-addr listener, the checkpoint step, the manifest, and the exit
// status. A run starts once its input is accepted: a refused document or
// flag ends the command before it, with no manifest.
type Run struct {
	// Name is the diagnostics prefix ("scenario", "figures", "sweepd").
	Name string
	// Unit names the run's items in the ticker and the resume note
	// ("scenarios", "points", "experiments").
	Unit string
	// Ticker makes Progress print a line per completion (-progress).
	Ticker bool
	// Manifest is the end-of-run record. The command names its Tool and
	// fills what Begin and Checkpoint do not; Exec stamps the outcome.
	Manifest Manifest
	// Progress tracks the run's completions; Exec sets it before body
	// runs, and its partial count goes into a timeout or cancel note.
	Progress *Progress

	stderr  io.Writer
	start   time.Time
	closers []func()
}

// Exec runs body as the run. Once body returns, Exec reports body's error
// as Report does ("name: err", plus the timeout or cancel note), closes
// what the run opened (the metrics listener, the journal), and emits the
// manifest as the run's last stderr line. It returns the exit status: 0,
// 1, or ExitCancelled.
func (r *Run) Exec(stderr io.Writer, body func() error) int {
	r.stderr, r.start = stderr, time.Now()
	var ticker io.Writer
	if r.Ticker {
		ticker = stderr
	}
	r.Progress = NewProgress(r.Name, r.Unit, ticker)
	err := body()
	code := 0
	if err != nil {
		code = Report(r.Name, err, r.Progress, stderr)
	}
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
	r.Manifest.finish(r.start, nil, err)
	emitManifest(stderr, r.Manifest)
	return code
}

// Elapsed is the wall time since the run started.
func (r *Run) Elapsed() time.Duration { return time.Since(r.start) }

// Begin records the batch the run executes in the manifest: its kind,
// content hash and size, every item counted as run until Checkpoint
// replays some.
func (r *Run) Begin(b work.Batch) {
	r.Manifest.Kind = b.Kind()
	if hash, err := b.Hash(); err == nil {
		r.Manifest.BatchSHA256 = hash
	}
	r.Manifest.Items, r.Manifest.ItemsRun = b.Len(), b.Len()
}

// ServeMetrics serves reg's /metrics and /debug/pprof on addr for the rest
// of the run and announces the listener; it returns reg, or a new registry
// when reg is nil. An empty addr serves nothing and returns reg as is, so
// a command that records only for the listener passes nil and records
// nothing without the flag.
func (r *Run) ServeMetrics(addr string, reg *obs.Registry) (*obs.Registry, error) {
	if addr == "" {
		return reg, nil
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	maddr, stop, err := obs.Serve(addr, reg)
	if err != nil {
		return nil, err
	}
	r.closers = append(r.closers, stop)
	fmt.Fprintf(r.stderr, "%s: metrics on http://%s/metrics\n", r.Name, maddr)
	return reg, nil
}

// Checkpoint is the run's checkpoint step: with a non-empty path it opens
// b's journal there — replayed when resume is set — into o's Journal and
// Done, announces what a resume skips, and records the resumed/run split
// in the manifest. The journal closes when the run ends.
func (r *Run) Checkpoint(path string, b work.Batch, resume bool, o *work.Options) error {
	if path == "" {
		return nil
	}
	jr, done, err := work.OpenJournal(path, b, resume)
	if err != nil {
		return err
	}
	r.closers = append(r.closers, func() { jr.Close() })
	if len(done) > 0 {
		fmt.Fprintf(r.stderr, "%s: resuming, %d/%d %s already journaled\n", r.Name, len(done), b.Len(), r.Unit)
	}
	o.Journal, o.Done = jr, done
	r.Manifest.ItemsResumed = len(done)
	r.Manifest.ItemsRun = b.Len() - len(done)
	return nil
}
