package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestExitCodeMapping(t *testing.T) {
	if c := ExitCode(context.Canceled); c != ExitCancelled {
		t.Errorf("cancelled run: exit %d, want %d", c, ExitCancelled)
	}
	if c := ExitCode(context.DeadlineExceeded); c != 1 {
		t.Errorf("timed-out run: exit %d, want 1", c)
	}
	if c := ExitCode(errors.New("boom")); c != 1 {
		t.Errorf("failed run: exit %d, want 1", c)
	}
	// Joined errors (the sweep engine's shape) keep their classification.
	joined := errors.Join(errors.New("sweep: item 3: x"), context.Canceled)
	if !Cancelled(joined) || ExitCode(joined) != ExitCancelled {
		t.Errorf("joined cancellation not recognized: %v", joined)
	}
}

func TestWithTimeoutExpires(t *testing.T) {
	ctx, cancel := WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("timeout context never expired")
	}
	if !TimedOut(ctx.Err()) {
		t.Fatalf("want DeadlineExceeded, got %v", ctx.Err())
	}
}

func TestWithTimeoutZeroIsUnbounded(t *testing.T) {
	base := context.Background()
	ctx, cancel := WithTimeout(base, 0)
	defer cancel()
	if ctx != base {
		t.Fatal("zero timeout must return the parent context unchanged")
	}
	if _, ok := ctx.Deadline(); ok {
		t.Fatal("zero timeout must not set a deadline")
	}
}

func TestSignalContext(t *testing.T) {
	ctx, stop := SignalContext()
	if ctx.Err() != nil {
		t.Fatalf("fresh context already done: %v", ctx.Err())
	}
	stop()
}

func TestProgressTicker(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress("figures", "experiments", &buf)
	hook := p.Hook()
	hook(1, 3)
	hook(2, 3)
	out := buf.String()
	if !strings.Contains(out, "figures: 1/3 experiments") || !strings.Contains(out, "figures: 2/3 experiments") {
		t.Fatalf("ticker lines missing:\n%s", out)
	}
	if p.Note() != "2/3 experiments" {
		t.Fatalf("note = %q", p.Note())
	}
}

// fakeClock is a manually advanced time source for pinning rate/ETA
// arithmetic.
type fakeClock struct{ now time.Time }

func (c *fakeClock) clock() obs.Clock        { return func() time.Time { return c.now } }
func (c *fakeClock) advance(d time.Duration) { c.now = c.now.Add(d) }

// TestProgressRateAndETA pins the ticker's throughput math against an
// injected clock: the rate covers completions observed since the first
// hook call, the ETA extrapolates it over the remainder, and the final
// line drops the ETA.
func TestProgressRateAndETA(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	var buf bytes.Buffer
	p := NewProgress("scenario", "points", &buf)
	p.clock = clk.clock()
	hook := p.Hook()

	hook(1, 100) // first observation: no rate measurable yet
	if got := strings.TrimSuffix(buf.String(), "\n"); got != "scenario: 1/100 points" {
		t.Fatalf("first line = %q, want no rate suffix", got)
	}

	buf.Reset()
	clk.advance(2 * time.Second)
	hook(5, 100) // 4 completions over 2s → 2.0/s; 95 left → ~48s
	if got := strings.TrimSuffix(buf.String(), "\n"); got != "scenario: 5/100 points, 2.0 points/s, ~48s left" {
		t.Fatalf("rate line = %q", got)
	}

	buf.Reset()
	clk.advance(7 * time.Second)
	hook(100, 100) // 99 over 9s → 11.0/s; done → no ETA
	if got := strings.TrimSuffix(buf.String(), "\n"); got != "scenario: 100/100 points, 11.0 points/s" {
		t.Fatalf("final line = %q", got)
	}
}

// TestProgressRateStalledClock guards the degenerate cases: a clock that
// has not advanced, or a hook reporting no new completions, must not
// print a rate (let alone divide by zero).
func TestProgressRateStalledClock(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	var buf bytes.Buffer
	p := NewProgress("x", "items", &buf)
	p.clock = clk.clock()
	hook := p.Hook()
	hook(1, 10)
	hook(2, 10) // clock unchanged → elapsed 0 → no suffix
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if strings.Contains(line, "/s") {
			t.Fatalf("rate printed with stalled clock: %q", line)
		}
	}
}

// TestProgressTickerThrottling pins the ~0.1% throttle: beyond 1000
// items only every total/1000th completion (and the final one) prints.
func TestProgressTickerThrottling(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress("grid", "points", &buf)
	hook := p.Hook()
	const total = 4000 // total/1000 = 4 → prints at multiples of 4, plus the final
	for done := 1; done <= total; done++ {
		hook(done, total)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != total/4 {
		t.Fatalf("printed %d ticker lines for %d items, want %d", lines, total, total/4)
	}
	if !strings.Contains(buf.String(), fmt.Sprintf("grid: %d/%d points", total, total)) {
		t.Fatalf("final completion line missing:\n...%s", buf.String()[len(buf.String())-200:])
	}

	// At or below 1000 items every completion prints.
	buf.Reset()
	small := NewProgress("s", "items", &buf)
	h := small.Hook()
	for done := 1; done <= 1000; done++ {
		h(done, 1000)
	}
	if got := strings.Count(buf.String(), "\n"); got != 1000 {
		t.Fatalf("small run printed %d lines, want 1000", got)
	}
}

// TestProgressTickerThrottlingOffMultipleFinal checks the final
// completion prints even when total is not a multiple of the stride.
func TestProgressTickerThrottlingOffMultipleFinal(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress("g", "points", &buf)
	hook := p.Hook()
	const total = 4001 // stride 4; 4001 % 4 != 0 → final must still print
	for done := 1; done <= total; done++ {
		hook(done, total)
	}
	if !strings.Contains(buf.String(), "g: 4001/4001 points") {
		t.Fatal("final completion line missing for off-stride total")
	}
}

func TestProgressConcurrentHook(t *testing.T) {
	p := NewProgress("x", "items", nil)
	hook := p.Hook()
	var wg sync.WaitGroup
	for i := 1; i <= 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hook(i, 50)
		}(i)
	}
	wg.Wait()
	if p.Note() != "50/50 items" {
		t.Fatalf("note = %q, want 50/50 items", p.Note())
	}
}

func TestProgressNoteEmptyBeforeWork(t *testing.T) {
	p := NewProgress("x", "items", nil)
	if p.Note() != "" {
		t.Fatalf("note = %q before any completion", p.Note())
	}
}

func TestReport(t *testing.T) {
	p := NewProgress("scenario", "scenarios", nil)
	p.Hook()(2, 5)
	var buf bytes.Buffer
	if code := Report("scenario", context.Canceled, p, &buf); code != ExitCancelled {
		t.Fatalf("exit %d, want %d", code, ExitCancelled)
	}
	if !strings.Contains(buf.String(), "cancelled after 2/5 scenarios") {
		t.Fatalf("missing partial-progress note:\n%s", buf.String())
	}
	buf.Reset()
	if code := Report("scenario", errors.New("boom"), p, &buf); code != 1 {
		t.Fatalf("plain failure: exit %d, want 1", code)
	}
	buf.Reset()
	if code := Report("scenario", context.DeadlineExceeded, p, &buf); code != 1 {
		t.Fatalf("timeout: exit %d, want 1", code)
	}
	if !strings.Contains(buf.String(), "timed out after 2/5 scenarios") {
		t.Fatalf("missing timeout note:\n%s", buf.String())
	}
}

// TestManifestFinishAndEmit pins the manifest schema: one JSON line
// under the "manifest" key, wall time and rate from the injected clock,
// outcome classification from the run error.
func TestManifestFinishAndEmit(t *testing.T) {
	clk := &fakeClock{now: time.Unix(2000, 0)}
	start := clk.now
	clk.advance(4 * time.Second)

	m := Manifest{
		Tool: "scenario", Kind: "grid", BatchSHA256: "abc123", Fidelity: "analytical",
		Items: 1200, ItemsRun: 1000, ItemsResumed: 200,
	}
	m.finish(start, clk.clock(), nil)
	if m.WallMS != 4000 || m.ItemsPerSec != 250 || m.Outcome != "ok" || m.Error != "" {
		t.Fatalf("finished manifest = %+v", m)
	}

	var buf bytes.Buffer
	emitManifest(&buf, m)
	line := buf.String()
	if strings.Count(line, "\n") != 1 || !strings.HasSuffix(line, "\n") {
		t.Fatalf("manifest must be exactly one line: %q", line)
	}
	var decoded struct {
		Manifest Manifest `json:"manifest"`
	}
	if err := json.Unmarshal([]byte(line), &decoded); err != nil {
		t.Fatalf("manifest line does not parse: %v\n%s", err, line)
	}
	if decoded.Manifest != m {
		t.Fatalf("round trip:\n got %+v\nwant %+v", decoded.Manifest, m)
	}

	// Outcome classification for the three failure shapes.
	for _, tc := range []struct {
		err  error
		want string
	}{
		{context.Canceled, "cancelled"},
		{context.DeadlineExceeded, "timed_out"},
		{errors.New("boom"), "failed"},
	} {
		var f Manifest
		f.finish(start, clk.clock(), tc.err)
		if f.Outcome != tc.want || f.Error == "" {
			t.Errorf("finish(%v) = outcome %q error %q, want %q", tc.err, f.Outcome, f.Error, tc.want)
		}
	}
}

func TestDispatch(t *testing.T) {
	cmds := []Command{
		{Name: "serve", Summary: "coordinate a sweep", Run: func(ctx context.Context, args []string, _ io.Reader, stdout, _ io.Writer) int {
			fmt.Fprintf(stdout, "serve %v", args)
			return 0
		}},
		{Name: "work", Summary: "execute leased units", Run: func(context.Context, []string, io.Reader, io.Writer, io.Writer) int {
			return 7
		}},
	}
	var stdout, stderr bytes.Buffer

	if code := Dispatch(context.Background(), "sweepd", cmds, []string{"serve", "-x"}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("serve: exit %d, stderr: %s", code, stderr.String())
	}
	if stdout.String() != "serve [-x]" {
		t.Errorf("subcommand args not forwarded: %q", stdout.String())
	}
	if code := Dispatch(context.Background(), "sweepd", cmds, []string{"work"}, nil, &stdout, &stderr); code != 7 {
		t.Errorf("work: exit %d, want 7", code)
	}

	stderr.Reset()
	if code := Dispatch(context.Background(), "sweepd", cmds, nil, nil, &stdout, &stderr); code != 2 {
		t.Errorf("no subcommand: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "serve") || !strings.Contains(stderr.String(), "coordinate a sweep") {
		t.Errorf("usage should list commands:\n%s", stderr.String())
	}
	stderr.Reset()
	if code := Dispatch(context.Background(), "sweepd", cmds, []string{"bogus"}, nil, &stdout, &stderr); code != 2 {
		t.Errorf("unknown subcommand: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown command "bogus"`) {
		t.Errorf("missing unknown-command diagnostic:\n%s", stderr.String())
	}
	if code := Dispatch(context.Background(), "sweepd", cmds, []string{"help"}, nil, &stdout, &stderr); code != 2 {
		t.Errorf("help: exit %d, want 2", code)
	}
}
