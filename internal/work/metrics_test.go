package work

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/dist/journal"
	"repro/internal/obs"
)

// TestRunMetricsPopulated pins the driver instrument set: after a
// streamed run, the completion counter and latency histogram hold one
// entry per item, the queue gauges have drained to zero, and the
// throughput gauge is positive — and the emitted bytes are untouched.
func TestRunMetricsPopulated(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	if err := Run(t.Context(), toy(50), Options{Workers: 4, Metrics: reg}, &buf); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), toyWant(50); got != want {
		t.Fatalf("instrumented output differs:\n got: %q\nwant: %q", got, want)
	}

	snap := reg.Snapshot()
	if c := snap.Family(MetricItemsTotal).Get("toy", "unspecified"); c == nil || c.Value != 50 {
		t.Fatalf("%s{toy,unspecified} = %+v, want 50", MetricItemsTotal, c)
	}
	// Latency is sampled: the warmup (items 1-8) plus sequence numbers
	// 17, 33, 49 of the 1-in-16 schedule → 11 observations for 50 items.
	h := snap.Family(MetricItemSeconds).Get("toy", "unspecified")
	if h == nil || h.Histogram == nil || h.Histogram.Count != 11 {
		t.Fatalf("%s{toy,unspecified} = %+v, want count 11 (sampled)", MetricItemSeconds, h)
	}
	if h.Histogram.Sum < 0 {
		t.Fatalf("latency sum = %v, want >= 0", h.Histogram.Sum)
	}
	if g := snap.Family(MetricPending).Get("toy"); g == nil || g.Value != 0 {
		t.Fatalf("%s{toy} = %+v, want 0 after the run", MetricPending, g)
	}
	if g := snap.Family(MetricInflight).Get("toy"); g == nil || g.Value != 0 {
		t.Fatalf("%s{toy} = %+v, want 0 after the run", MetricInflight, g)
	}
	if g := snap.Family(MetricItemsPerSec).Get("toy"); g == nil || g.Value <= 0 {
		t.Fatalf("%s{toy} = %+v, want > 0", MetricItemsPerSec, g)
	}
}

// TestCollectMetricsPopulated checks the buffered driver records through
// the same instrument set.
func TestCollectMetricsPopulated(t *testing.T) {
	reg := obs.NewRegistry()
	lines, err := Collect(t.Context(), toy(20), Options{Workers: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 20 {
		t.Fatalf("collected %d lines, want 20", len(lines))
	}
	snap := reg.Snapshot()
	if c := snap.Family(MetricItemsTotal).Get("toy", "unspecified"); c == nil || c.Value != 20 {
		t.Fatalf("%s = %+v, want 20", MetricItemsTotal, c)
	}
	if g := snap.Family(MetricPending).Get("toy"); g == nil || g.Value != 0 {
		t.Fatalf("%s = %+v, want 0 after the run", MetricPending, g)
	}
}

// TestResumeMetricsCountOnlyExecuted pins the resume semantics: indices
// replayed from a checkpoint are never re-executed, so they never reach
// the instruments — a resumed run's counters cover exactly the remainder.
func TestResumeMetricsCountOnlyExecuted(t *testing.T) {
	reg := obs.NewRegistry()
	done := []journal.Entry{
		{I: 0, Line: json.RawMessage(`{"i":0}`)},
		{I: 2, Line: json.RawMessage(`{"i":2}`)},
	}
	var buf bytes.Buffer
	if err := Run(t.Context(), toy(5), Options{Workers: 2, Metrics: reg, Done: done}, &buf); err != nil {
		t.Fatal(err)
	}
	if c := reg.Snapshot().Family(MetricItemsTotal).Get("toy", "unspecified"); c == nil || c.Value != 3 {
		t.Fatalf("%s after resume = %+v, want 3 (5 items, 2 replayed)", MetricItemsTotal, c)
	}
}

// TestRunMetricsSharedRegistry checks registration idempotency across
// runs: the refine flow runs the driver twice against one registry, and
// the second run must accumulate onto the same series, not panic.
func TestRunMetricsSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		if err := Run(t.Context(), toy(10), Options{Workers: 2, Metrics: reg}, &buf); err != nil {
			t.Fatal(err)
		}
	}
	if c := reg.Snapshot().Family(MetricItemsTotal).Get("toy", "unspecified"); c == nil || c.Value != 20 {
		t.Fatalf("%s after two runs = %+v, want 20", MetricItemsTotal, c)
	}
}

// fidelityBatch is a toy batch that declares a fidelity.
type fidelityBatch struct {
	toyBatch
	fid string
}

func (b fidelityBatch) DescribeFidelity() string { return b.fid }

// TestFidelityOf pins the label fallback: batches without the optional
// interface (or describing themselves as empty) label as "unspecified";
// described batches use their own label.
func TestFidelityOf(t *testing.T) {
	if got := FidelityOf(toy(1)); got != "unspecified" {
		t.Errorf("FidelityOf(toy) = %q, want unspecified", got)
	}
	if got := FidelityOf(fidelityBatch{toy(1), "analytical"}); got != "analytical" {
		t.Errorf("FidelityOf(described) = %q, want analytical", got)
	}
	if got := FidelityOf(fidelityBatch{toy(1), ""}); got != "unspecified" {
		t.Errorf("FidelityOf(empty description) = %q, want unspecified", got)
	}
}
