package work

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// FidelityDescriber is an optional Batch extension naming the miss-matrix
// fidelity a batch runs at — "trace", "analytical", or "mixed" for batches
// whose items disagree. The driver uses it only as a metrics label (the
// per-item latency histogram is keyed (kind, fidelity): the two fidelities
// differ by ~180× per point, and a blended histogram would describe
// neither). Kinds that do not implement it are labeled "unspecified".
type FidelityDescriber interface {
	DescribeFidelity() string
}

// FidelityOf returns the metrics fidelity label for a batch.
func FidelityOf(b Batch) string {
	if d, ok := b.(FidelityDescriber); ok {
		if f := d.DescribeFidelity(); f != "" {
			return f
		}
	}
	return "unspecified"
}

// Driver metric names, one set shared by Run and Collect. Fleet operators
// scrape these via the CLIs' -metrics-addr endpoint or the coordinator's
// /metrics; tests read them through the registry snapshot API.
const (
	// MetricItemSeconds is the per-item execution latency histogram,
	// labeled (kind, fidelity). Latency is sampled, not exhaustive: the
	// first sampleWarm items of a run are all timed (small batches get
	// full coverage), then a deterministic 1-in-sampleEvery sample — a
	// clock read costs ~50ns, and timing every item of a million-point
	// analytical grid would cost more than the <5% of driver sec/op the
	// instrumentation targets (a target BenchmarkObsOverhead prices but
	// nothing checks). The histogram's count therefore reflects
	// observations, not items; MetricItemsTotal counts every item exactly.
	MetricItemSeconds = "work_item_seconds"
	// MetricItemsTotal counts successfully completed items, labeled
	// (kind, fidelity). Replayed checkpoint indices are not counted —
	// the driver never re-executes them.
	MetricItemsTotal = "work_items_total"
	// MetricInflight gauges items currently executing, labeled (kind).
	MetricInflight = "work_inflight_items"
	// MetricPending gauges items this run has still to complete, labeled
	// (kind) — the queue-depth/backpressure signal.
	MetricPending = "work_pending_items"
	// MetricItemsPerSec gauges the completion rate since run start,
	// labeled (kind).
	MetricItemsPerSec = "work_items_per_second"
)

// runMetrics is the driver's resolved instrument set. The hot path per
// item is two clock reads and four atomic adds (histogram, counter, two
// run-local counters); everything derived — in-flight, queue depth,
// throughput — is a read-time gauge (obs WithFunc) evaluated only when
// somebody scrapes. On near-zero-cost items BenchmarkObsOverhead's
// metrics/bare medians have read from −5% to +7.5% on a 2-vCPU host,
// inside a run-to-run spread of about 20%; the <5% sec/op budget is a
// target no test or gate checks yet. All of it is observation-only — no
// code path here can alter the bytes the driver emits.
type runMetrics struct {
	itemSeconds *obs.Histogram
	items       *obs.Counter
	clock       obs.Clock
	start       time.Time
	total       int64

	started atomic.Int64 // items handed to RunItem this run
	done    atomic.Int64 // items returned (success or failure) this run
	emitted atomic.Int64 // Run: lines emitted; Collect: items completed
}

// newRunMetrics resolves the driver instruments for a batch and binds
// the derived gauges for a run of npending items. On a shared registry a
// later run's gauges supersede an earlier one's (the refine flow runs
// phases sequentially); counters and histograms accumulate across runs.
func newRunMetrics(reg *obs.Registry, b Batch, npending int) *runMetrics {
	kind, fid := b.Kind(), FidelityOf(b)
	m := &runMetrics{total: int64(npending)}
	m.start = m.clock.Now()
	m.itemSeconds = reg.Histogram(MetricItemSeconds,
		"per-item execution latency in seconds", nil, "kind", "fidelity").With(kind, fid)
	m.items = reg.Counter(MetricItemsTotal,
		"items completed by the work driver", "kind", "fidelity").With(kind, fid)
	reg.Gauge(MetricInflight, "items currently executing", "kind").
		WithFunc(func() float64 { return float64(m.started.Load() - m.done.Load()) }, kind)
	reg.Gauge(MetricPending, "items this run has still to complete", "kind").
		WithFunc(func() float64 { return float64(m.total - m.emitted.Load()) }, kind)
	reg.Gauge(MetricItemsPerSec, "item completion rate since run start", "kind").
		WithFunc(func() float64 {
			if secs := m.clock.Now().Sub(m.start).Seconds(); secs > 0 {
				return float64(m.emitted.Load()) / secs
			}
			return 0
		}, kind)
	return m
}

// Latency sampling rate (see MetricItemSeconds): every one of the first
// sampleWarm items, then item sequence numbers ≡ 1 (mod sampleEvery).
// The schedule is keyed on the run-local start sequence, so it is
// deterministic per run regardless of worker interleaving.
const (
	sampleWarm  = 8
	sampleEvery = 16
)

// wrap instruments an item function: in-flight accounting around the
// call, sampled latency and an exact completion count on success.
func (m *runMetrics) wrap(fn func(context.Context, int) (json.RawMessage, error)) func(context.Context, int) (json.RawMessage, error) {
	return func(ctx context.Context, k int) (json.RawMessage, error) {
		seq := m.started.Add(1)
		sampled := seq <= sampleWarm || seq%sampleEvery == 1
		var start time.Time
		if sampled {
			start = m.clock.Now()
		}
		line, err := fn(ctx, k)
		if err == nil {
			if sampled {
				m.itemSeconds.Observe(m.clock.Now().Sub(start).Seconds())
			}
			m.items.Inc()
		}
		m.done.Add(1)
		return line, err
	}
}

// completed publishes the run's progress count for the derived gauges —
// one atomic store per emitted line.
func (m *runMetrics) completed(done int) {
	m.emitted.Store(int64(done))
}
