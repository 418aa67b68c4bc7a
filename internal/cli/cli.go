// Package cli holds the shared command-line plumbing of the repository's
// binaries: signal-aware run contexts, the exit-status convention for
// cancelled runs, a serialized progress tracker for partial-progress
// diagnostics, and Run, the scaffold the workload commands run their
// batches in. Every cmd/ main wires its run through SignalContext so
// Ctrl-C and SIGTERM cancel long sweeps cleanly instead of killing the
// process mid-write.
package cli

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// ExitCancelled is the exit status of a run ended by SIGINT/SIGTERM,
// following the shell convention of 128 + SIGINT(2).
const ExitCancelled = 130

// SignalContext returns a context cancelled by SIGINT or SIGTERM — the
// root context of every cmd/ binary. The returned stop func releases the
// signal registration (restoring default die-on-signal behavior for a
// second Ctrl-C).
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// WithTimeout bounds ctx by the -timeout flag value: 0 means unbounded
// (ctx is returned with a no-op cancel), matching every binary's flag
// default, so call sites stay one line.
func WithTimeout(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, timeout)
}

// Cancelled reports whether err ends a run because its context was
// cancelled (signal), as opposed to a failure or a timeout.
func Cancelled(err error) bool { return errors.Is(err, context.Canceled) }

// TimedOut reports whether err ends a run because the -timeout deadline
// passed.
func TimedOut(err error) bool { return errors.Is(err, context.DeadlineExceeded) }

// ExitCode maps a fatal run error to the exit status: ExitCancelled for
// signal cancellation, 1 for everything else (including timeouts).
func ExitCode(err error) int {
	if Cancelled(err) {
		return ExitCancelled
	}
	return 1
}

// Progress tracks fan-out completion for a command: it serializes
// concurrent hook calls, optionally echoes a ticker line per completion
// with the observed rate and an ETA, and renders a partial-progress note
// for cancellation diagnostics.
type Progress struct {
	mu          sync.Mutex
	w           io.Writer // nil = track silently
	label, unit string
	done, total int
	clock       obs.Clock // nil = time.Now, the metrics layer's source; tests set a fake
	start       time.Time // first observed completion; zero until then
	base        int       // done at first observation — rate covers what we watched
}

// NewProgress returns a tracker that prints "label: done/total unit" to w
// after each completed item — plus ", N unit/s, ~Xs left" once a rate is
// observable — or tracks silently when w is nil.
func NewProgress(label, unit string, w io.Writer) *Progress {
	return &Progress{w: w, label: label, unit: unit}
}

// Hook returns the sweep.Progress callback feeding this tracker. The
// callback is safe to invoke from concurrent workers.
//
// Ticker lines are throttled for large fan-outs: every completion prints
// up to 1000 items, beyond that only every total/1000th (and the final)
// completion does — a million-point grid reports ~0.1% increments
// instead of writing a million stderr lines.
//
// The rate is measured from the first observed completion (a resumed run
// reports the rate of what it actually executed, not of replayed
// journal lines), and the ETA extrapolates it over the remainder:
// "figures: 500/1000 experiments, 12 experiments/s, ~42s left". The
// first line of a run carries no rate — nothing is measurable yet.
func (p *Progress) Hook() sweep.Progress {
	return func(done, total int) {
		p.mu.Lock()
		defer p.mu.Unlock()
		now := p.clock.Now()
		if p.start.IsZero() {
			p.start = now
			p.base = done
		}
		if done > p.done {
			p.done = done
		}
		p.total = total
		if p.w != nil && (total <= 1000 || done%(total/1000) == 0 || done == total) {
			fmt.Fprintf(p.w, "%s: %d/%d %s%s\n", p.label, done, total, p.unit, p.rateSuffix(done, total, now))
		}
	}
}

// rateSuffix renders ", N unit/s, ~Xs left" from the completions
// observed since the first hook call, or "" while no rate is measurable
// (first line, or a clock that has not advanced). Callers hold p.mu.
func (p *Progress) rateSuffix(done, total int, now time.Time) string {
	elapsed := now.Sub(p.start).Seconds()
	if done <= p.base || elapsed <= 0 {
		return ""
	}
	rate := float64(done-p.base) / elapsed
	out := fmt.Sprintf(", %s %s/s", formatRate(rate), p.unit)
	if done < total {
		eta := time.Duration(float64(total-done) / rate * float64(time.Second)).Round(time.Second)
		if eta < time.Second {
			eta = time.Second
		}
		out += fmt.Sprintf(", ~%s left", eta)
	}
	return out
}

// formatRate renders an items/sec figure at a precision matched to its
// magnitude (1234, 45.2, 0.08).
func formatRate(rate float64) string {
	switch {
	case rate >= 100:
		return fmt.Sprintf("%.0f", rate)
	case rate >= 1:
		return fmt.Sprintf("%.1f", rate)
	default:
		return fmt.Sprintf("%.2f", rate)
	}
}

// Phase returns a tracker for one phase of the run p tracks: it counts
// the same unit, labels its lines "label [phase]", and prints where p
// prints.
func (p *Progress) Phase(phase string) *Progress {
	return NewProgress(p.label+" ["+phase+"]", p.unit, p.w)
}

// Note renders the partial-progress state ("3/12 experiments") for
// cancellation messages, or "" when no completion was ever observed.
func (p *Progress) Note() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.total == 0 {
		return ""
	}
	return fmt.Sprintf("%d/%d %s", p.done, p.total, p.unit)
}

// Command is one subcommand of a multi-command binary (sweepd serve /
// sweepd work). Run receives everything a top-level run func receives; the
// subcommand name has already been stripped from args.
type Command struct {
	// Name is the subcommand as typed on the command line.
	Name string
	// Summary is the one-line usage description.
	Summary string
	// Run executes the subcommand and returns the exit status.
	Run func(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int
}

// Dispatch routes args[0] to its Command. A missing, unknown, or help
// subcommand prints the command list to stderr and returns 2 (matching the
// flag-error convention of the single-command binaries).
func Dispatch(ctx context.Context, name string, cmds []Command, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	usage := func() {
		fmt.Fprintf(stderr, "usage: %s <command> [flags]\n\ncommands:\n", name)
		for _, c := range cmds {
			fmt.Fprintf(stderr, "  %-8s %s\n", c.Name, c.Summary)
		}
	}
	if len(args) == 0 {
		usage()
		return 2
	}
	sub := args[0]
	if sub == "help" || sub == "-h" || sub == "-help" || sub == "--help" {
		usage()
		return 2
	}
	for _, c := range cmds {
		if c.Name == sub {
			return c.Run(ctx, args[1:], stdin, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "%s: unknown command %q\n", name, sub)
	usage()
	return 2
}

// Manifest is the structured end-of-run record every workload command
// (scenario, figures, sweepd serve/work) emits through Run.Exec as the
// last line of its stderr, `{"manifest":{...}}` — enough to diagnose any
// run after the fact: what ran (kind, batch hash, fidelity), how much
// (items, resume split), how fast (wall time, items/sec), and how it
// ended. stderr, not stdout: result streams stay byte-identical to
// sequential runs.
type Manifest struct {
	// Tool is the emitting binary (and subcommand, e.g. "sweepd serve").
	Tool string `json:"tool"`
	// Kind is the workload kind executed ("scenario-batch",
	// "experiments", "grid"), empty for runs outside the work registry.
	Kind string `json:"kind,omitempty"`
	// BatchSHA256 is the batch content hash — the same hash that pins
	// checkpoint journals and distributed runs, so a manifest links a
	// run to its journal and its input.
	BatchSHA256 string `json:"batch_sha256,omitempty"`
	// Fidelity is the batch's miss-matrix fidelity label.
	Fidelity string `json:"fidelity,omitempty"`
	// Items is the batch size; ItemsRun of them executed here and
	// ItemsResumed were replayed from a checkpoint.
	Items        int `json:"items"`
	ItemsRun     int `json:"items_run"`
	ItemsResumed int `json:"items_resumed,omitempty"`
	// WallMS is the run's wall time; ItemsPerSec = ItemsRun over it.
	WallMS      int64   `json:"wall_ms"`
	ItemsPerSec float64 `json:"items_per_sec"`
	// Outcome is "ok", "failed", "cancelled", or "timed_out"; Error
	// carries the failure text for the non-ok outcomes.
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
}

// finish stamps the timing and outcome fields from a run's start time
// and final error: wall clock, the derived rate (rounded to 3 decimals —
// a diagnostic figure, not a measurement), and the outcome/error pair.
func (m *Manifest) finish(start time.Time, clock obs.Clock, err error) {
	wall := clock.Now().Sub(start)
	m.WallMS = wall.Milliseconds()
	if secs := wall.Seconds(); secs > 0 && m.ItemsRun > 0 {
		m.ItemsPerSec = math.Round(float64(m.ItemsRun)/secs*1000) / 1000
	}
	switch {
	case err == nil:
		m.Outcome = "ok"
	case TimedOut(err):
		m.Outcome = "timed_out"
		m.Error = err.Error()
	case Cancelled(err):
		m.Outcome = "cancelled"
		m.Error = err.Error()
	default:
		m.Outcome = "failed"
		m.Error = err.Error()
	}
}

// emitManifest writes the manifest to w as its one-line wire form.
// Best-effort: a broken stderr never fails a run that computed its
// results.
func emitManifest(w io.Writer, m Manifest) {
	line, err := json.Marshal(struct {
		Manifest Manifest `json:"manifest"`
	}{m})
	if err != nil {
		return
	}
	fmt.Fprintf(w, "%s\n", line)
}

// Report writes the standard diagnostics for a fatal run error — the error
// itself, a timeout note, and the partial-progress state — and returns the
// exit status. name is the binary's diagnostic prefix.
func Report(name string, err error, p *Progress, stderr io.Writer) int {
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	switch {
	case TimedOut(err):
		fmt.Fprintf(stderr, "%s: timed out", name)
	case Cancelled(err):
		fmt.Fprintf(stderr, "%s: cancelled", name)
	default:
		return 1
	}
	if note := p.Note(); note != "" {
		fmt.Fprintf(stderr, " after %s", note)
	}
	fmt.Fprintln(stderr)
	return ExitCode(err)
}
