package work

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/dist/journal"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// Options tunes one driver run. The zero value streams with GOMAXPROCS
// workers, no progress hook, and no checkpointing.
type Options struct {
	// Workers bounds concurrent RunItem calls (0 = GOMAXPROCS, 1 =
	// sequential execution — the output bytes are identical either way).
	Workers int
	// Progress, when non-nil, observes completion: Run calls it once per
	// emitted line (serialized on the emitter) with (done, total), where
	// total counts only the items this run executes — indices replayed
	// from a checkpoint are excluded from both numbers. Collect calls it
	// once per completed item, possibly from concurrent workers.
	Progress sweep.Progress
	// Journal, when non-nil, records every completed line before it is
	// written to the sink, so a killed run can resume (Run only; Collect
	// does not checkpoint).
	Journal *journal.Journal
	// Done carries the entries a previous run already completed, sorted
	// by input index (journal replay via OpenJournal). Covered indices are
	// neither re-executed nor re-emitted: a resumed run's output is
	// exactly the remainder, in input order.
	Done []journal.Entry
	// Observe, when non-nil, sees every line of the batch keyed by input
	// index: first each entry of Done, in input order, then every line
	// this run emits — after it is journaled, before it is written to the
	// sink. CLI-level reductions (the grid frontier) hook in here instead
	// of re-parsing the sink's stream, and see a resumed run exactly as a
	// fresh one. Run only; Collect returns its lines and ignores Observe.
	Observe func(i int, line json.RawMessage)
	// Metrics, when non-nil, receives driver instrumentation: a sampled
	// per-item latency histogram keyed (kind, fidelity), exact
	// completed-item counts, and read-time in-flight/pending/throughput
	// gauges (the work_* families in metrics.go). Observation-only —
	// the emitted bytes are identical with or without it, which the
	// equivalence suite pins — and cheap: handles resolve once per run,
	// the steady-state per-item cost is a handful of atomic adds
	// (BenchmarkObsOverhead holds it under 5% of driver sec/op).
	Metrics *obs.Registry
}

// Run is the unified streaming driver: it executes every pending item of
// the batch across a bounded worker pool and writes one compact NDJSON
// line per item to w, in input order, each line written as soon as the
// ordered prefix through it is complete. Backpressure is bounded — a slow
// sink throttles the workers instead of results accumulating in memory.
//
// With o.Journal set, every line is journaled before it is written to w
// (journal-before-emit: the journal, not the consumer's copy of the
// stream, is the authoritative record — a crash between the two leaves the
// line recoverable rather than emitted-but-unjournaled). Indices in o.Done
// are observed but never re-run or re-emitted; when everything is already
// journaled, Run returns having emitted nothing.
//
// On success the concatenation of the skipped journal lines and the bytes
// written to w is byte-identical to a sequential, uncheckpointed run at
// any worker count. A failing item aborts the run with its error; a write
// or journal failure cancels the remaining items instead of computing
// output nobody records.
func Run(ctx context.Context, b Batch, o Options, w io.Writer) error {
	n := b.Len()
	if n <= 0 {
		return fmt.Errorf("work: %s batch has no items", b.Kind())
	}
	// pending maps stream slot → input index. A nil slice means the
	// identity mapping — the fresh-run case keeps memory independent of
	// the item count (lazily-expanded grid batches run millions of items
	// in one process); only a resume, whose journal is already O(done),
	// materializes the remainder, in one merge walk over the sorted Done.
	var pending []int
	npending := n
	if len(o.Done) > 0 {
		pending = make([]int, 0, n)
		done := o.Done
		for i := 0; i < n; i++ {
			if len(done) == 0 || done[0].I != i {
				pending = append(pending, i)
				continue
			}
			if o.Observe != nil {
				o.Observe(i, done[0].Line)
			}
			done = done[1:]
		}
		if len(pending) == 0 {
			return nil
		}
		npending = len(pending)
	}
	indexOf := func(k int) int {
		if pending == nil {
			return k
		}
		return pending[k]
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fn := func(ctx context.Context, k int) (json.RawMessage, error) {
		return b.RunItem(ctx, indexOf(k))
	}
	var m *runMetrics
	if o.Metrics != nil {
		m = newRunMetrics(o.Metrics, b, npending)
		fn = m.wrap(fn)
	}
	ch, wait := sweep.Stream(ctx, npending, sweep.StreamConfig{
		Workers:  o.Workers,
		Progress: o.Progress,
	}, fn)
	emitted := 0
	var sinkErr error
	for line := range ch {
		if sinkErr != nil {
			continue // the post-cancel drain; nothing more is scheduled
		}
		idx := indexOf(emitted)
		var err error
		if o.Journal != nil {
			err = o.Journal.Record(idx, line)
		}
		if err == nil {
			if o.Observe != nil {
				o.Observe(idx, line)
			}
			_, err = w.Write(append(line, '\n'))
		}
		if err != nil {
			sinkErr = fmt.Errorf("work: emitting item %d: %w", idx, err)
			cancel()
		}
		emitted++
		if m != nil && sinkErr == nil {
			m.completed(emitted)
		}
	}
	err := wait()
	if sinkErr != nil {
		// The wait error is the cancellation this function triggered; the
		// journal/write failure is the root cause.
		return sinkErr
	}
	return err
}

// Collect is the buffered driver: it executes every item across a bounded
// worker pool and returns the lines in input order — for callers that need
// the whole result set at once (buffered CLI documents, distributed unit
// executors). The lines are exactly what Run would stream, without the
// trailing newlines. Collect does not checkpoint; o.Journal and o.Done are
// ignored.
func Collect(ctx context.Context, b Batch, o Options) ([][]byte, error) {
	n := b.Len()
	if n <= 0 {
		return nil, fmt.Errorf("work: %s batch has no items", b.Kind())
	}
	item := b.RunItem
	var m *runMetrics
	if o.Metrics != nil {
		m = newRunMetrics(o.Metrics, b, n)
		item = m.wrap(item)
	}
	var done atomic.Int64
	return sweep.MapCtx(ctx, n, o.Workers, func(ctx context.Context, i int) ([]byte, error) {
		line, err := item(ctx, i)
		if err != nil {
			return nil, err
		}
		d := int(done.Add(1))
		if m != nil {
			m.completed(d)
		}
		if o.Progress != nil {
			o.Progress(d, n)
		}
		return line, nil
	})
}

// Header renders the checkpoint-journal header pinning this batch: its
// kind, canonical content hash, and item count.
func Header(b Batch) (journal.Header, error) {
	hash, err := b.Hash()
	if err != nil {
		return journal.Header{}, err
	}
	return journal.Header{Kind: b.Kind(), BatchSHA256: hash, N: b.Len()}, nil
}

// OpenJournal opens the checkpoint journal for a batch: a fresh journal
// when resume is false, otherwise an existing one replayed (its entries
// return sorted by input index, ready for Options.Done) after verifying it
// belongs to exactly this batch — kind, content hash, and item count all
// match, or the resume is refused.
func OpenJournal(path string, b Batch, resume bool) (*journal.Journal, []journal.Entry, error) {
	h, err := Header(b)
	if err != nil {
		return nil, nil, err
	}
	return journal.Open(path, h, resume)
}
