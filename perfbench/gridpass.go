package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"repro/internal/cachecfg"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dist/store"
	"repro/internal/grid"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/work"
)

// timedBatch times every RunItem call of the batch it wraps. after, when
// set, runs once the item's line is known (the traced rebuild); its time is
// not part of the item's latency.
type timedBatch struct {
	work.Batch
	lat   []time.Duration // per index; each written by the one call for it
	after func(ctx context.Context, i int, line []byte, start time.Time, d time.Duration) error
}

func newTimedBatch(b work.Batch) *timedBatch {
	return &timedBatch{Batch: b, lat: make([]time.Duration, b.Len())}
}

func (t *timedBatch) RunItem(ctx context.Context, i int) (json.RawMessage, error) {
	start := clock.Now()
	line, err := t.Batch.RunItem(ctx, i)
	d := clock.Now().Sub(start)
	if err != nil {
		return nil, err
	}
	t.lat[i] = d
	if t.after != nil {
		if err := t.after(ctx, i, line, start, d); err != nil {
			return nil, err
		}
	}
	return line, nil
}

// reference is the expected output of a batch: work.Collect's lines and
// the frontier summary line a streamed grid run appends.
type reference struct {
	lines    [][]byte
	frontier []byte
	// bad counts lines that are not the scenario result frame of their
	// point.
	bad int
}

// buildReference collects the batch with the buffered driver and checks
// that every line is the scenario result frame of its point.
func buildReference(ctx context.Context, b *grid.Batch) (*reference, error) {
	lines, err := work.Collect(ctx, b, work.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	ref := &reference{lines: lines}
	var f grid.Frontier
	for i, l := range lines {
		if err := f.Add(i, l); err != nil {
			return nil, err
		}
		dec := json.NewDecoder(bytes.NewReader(l))
		dec.DisallowUnknownFields()
		var r scenario.Result
		if err := dec.Decode(&r); err != nil || r.Name != b.ConfigAt(i).Name {
			ref.bad++
		}
	}
	if ref.frontier, err = f.SummaryLine(); err != nil {
		return nil, err
	}
	return ref, nil
}

// checkSink is the grid pass's output: it writes the stream to a file, as
// `scenario -stream` writes stdout, and compares each line with the
// reference as it arrives. work.Run writes exactly one line per call.
type checkSink struct {
	w          io.Writer
	ref        *reference
	k          int
	mismatched int
	heap       *heapSampler
	// Traced runs time each write and the gap before it.
	traced  bool
	writeUS []float64
	gaps    time.Duration
	lastEnd time.Time
}

func (s *checkSink) Write(p []byte) (int, error) {
	var start time.Time
	if s.traced {
		start = clock.Now()
		s.gaps += start.Sub(s.lastEnd)
	}
	want := s.ref.frontier
	if s.k < len(s.ref.lines) {
		want = s.ref.lines[s.k]
	}
	if s.k > len(s.ref.lines) || !bytes.Equal(bytes.TrimSuffix(p, []byte{'\n'}), want) {
		s.mismatched++
	}
	s.k++
	n, err := s.w.Write(p)
	s.heap.read()
	if s.traced {
		s.lastEnd = clock.Now()
		s.writeUS = append(s.writeUS, micros(s.lastEnd.Sub(start)))
	}
	return n, err
}

// roundStats is one streamed run of the grid pass.
type roundStats struct {
	elapsed    time.Duration
	lat        []time.Duration
	mismatched int
	heapPeakMB float64
	// Traced rounds only.
	frontierAddUS    []float64
	frontierPointsMS float64
	writeUS          []float64
	emitWait         time.Duration
	busy             time.Duration
}

// gridRound streams the batch through work.Run with the frontier
// reduction, exactly as `scenario -stream -frontier` does, into a sink
// file under dir. after, when set, is the traced rebuild hook.
func gridRound(ctx context.Context, b *grid.Batch, ref *reference, dir string, traced bool,
	after func(ctx context.Context, i int, line []byte, start time.Time, d time.Duration) error) (roundStats, error) {
	f, err := os.Create(filepath.Join(dir, "stream.ndjson"))
	if err != nil {
		return roundStats{}, err
	}
	defer f.Close()
	debug.FreeOSMemory()
	heap := newHeapSampler()
	tb := newTimedBatch(b)
	tb.after = after
	sink := &checkSink{w: f, ref: ref, heap: heap, traced: traced}
	var st roundStats
	var fr grid.Frontier
	var frErr error
	observe := func(i int, line json.RawMessage) {
		var t0 time.Time
		if traced {
			t0 = clock.Now()
		}
		if err := fr.Add(i, line); err != nil && frErr == nil {
			frErr = err
		}
		if traced {
			d := clock.Now().Sub(t0)
			st.frontierAddUS = append(st.frontierAddUS, micros(d))
			sink.gaps -= d
		}
	}
	start := clock.Now()
	sink.lastEnd = start
	if err := work.Run(ctx, tb, work.Options{Workers: workers, Observe: observe}, sink); err != nil {
		return roundStats{}, err
	}
	if frErr != nil {
		return roundStats{}, frErr
	}
	t0 := clock.Now()
	summary, err := fr.SummaryLine()
	if err != nil {
		return roundStats{}, err
	}
	st.frontierPointsMS = millis(clock.Now().Sub(t0))
	if _, err := sink.Write(append(summary, '\n')); err != nil {
		return roundStats{}, err
	}
	st.elapsed = clock.Now().Sub(start)
	heap.read()
	if err := f.Close(); err != nil {
		return roundStats{}, err
	}
	st.lat = tb.lat
	st.mismatched = sink.mismatched + abs(len(ref.lines)+1-sink.k)
	st.heapPeakMB = heap.peakMB()
	st.writeUS = sink.writeUS
	st.emitWait = sink.gaps
	for _, d := range tb.lat {
		st.busy += d
	}
	return st, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// setupStats is one cold set-up.
type setupStats struct {
	total, designs, profiles time.Duration
	designsBuilt             int
}

// designConfigs lists the distinct cache organizations the workload's
// grids characterize.
func designConfigs(w workload) []cachecfg.Config {
	seen := map[cachecfg.Config]bool{}
	var out []cachecfg.Config
	for _, g := range []grid.Grid{w.grid, w.svcA, w.svcB} {
		for _, kb := range g.Axes.L1KB {
			if c := cachecfg.L1(kb * cachecfg.KB); !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
		for _, kb := range g.Axes.L2KB {
			if c := cachecfg.L2(kb * cachecfg.KB); !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// profileAccesses is the trace length the workload profiles at, or 0 when
// no grid of it is analytical.
func profileAccesses(w workload) int {
	for _, g := range []grid.Grid{w.grid, w.svcA, w.svcB} {
		if g.Base.Fidelity == profile.FidelityAnalytical {
			return g.Base.Accesses
		}
	}
	return 0
}

// setupOnce is one cold start before the first item: the design
// characterization core.SharedDesign memoizes (core.DesignCache, the call
// behind it, so every repetition is cold), the suite profiles of
// analytical grids (a fresh profile.Memo), and a store and service start.
func setupOnce(ctx context.Context, w workload, seed int64, dir string) (setupStats, error) {
	var st setupStats
	start := clock.Now()
	cfgs := designConfigs(w)
	if _, err := sweep.MapCtx(ctx, len(cfgs), workers, func(_ context.Context, i int) (*core.CacheDesign, error) {
		return core.DesignCache(core.SharedTechnology(), cfgs[i])
	}); err != nil {
		return st, err
	}
	st.designs = clock.Now().Sub(start)
	st.designsBuilt = len(cfgs)
	if n := profileAccesses(w); n > 0 {
		t0 := clock.Now()
		if _, err := buildProfiles(ctx, seed, n); err != nil {
			return st, err
		}
		st.profiles = clock.Now().Sub(t0)
	}
	sdir, err := os.MkdirTemp(dir, "setup-")
	if err != nil {
		return st, err
	}
	defer os.RemoveAll(sdir)
	s, err := store.Open(sdir)
	if err != nil {
		return st, err
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	svc, err := dist.NewService(sctx, dist.ServiceConfig{Store: s})
	if err != nil {
		s.Close()
		return st, err
	}
	srv := httptest.NewServer(svc.Handler())
	srv.Close()
	if err := svc.Close(); err != nil {
		return st, err
	}
	st.total = clock.Now().Sub(start)
	return st, nil
}

// buildProfiles profiles the three suites at trace length n into a fresh
// memo, two workers at a time.
func buildProfiles(ctx context.Context, seed int64, n int) (*profile.Memo, error) {
	memo := profile.NewMemo()
	suites := trace.Suites(seed)
	err := sweep.EachCtx(ctx, len(suites), workers, func(ctx context.Context, i int) error {
		_, err := memo.ProfileCtx(ctx, suites[i], n)
		return err
	})
	return memo, err
}

// setup repeats the cold start and returns each repetition.
func setup(ctx context.Context, w workload, seed int64, dir string) ([]setupStats, error) {
	out := make([]setupStats, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		debug.FreeOSMemory()
		st, err := setupOnce(ctx, w, seed, dir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out = append(out, st)
	}
	return out, nil
}

// expanded is a workload's batches with their references.
type expanded struct {
	grid, svcA, svcB *grid.Batch
	ref, refA, refB  *reference
}

// expand expands the workload's grids and collects their references. The
// collection also fills the process-wide design and profile memos, so the
// measured phase starts warm; set-up cost is reported separately.
func expand(ctx context.Context, w workload) (*expanded, error) {
	var e expanded
	var err error
	for _, p := range []struct {
		g   grid.Grid
		b   **grid.Batch
		ref **reference
	}{{w.grid, &e.grid, &e.ref}, {w.svcA, &e.svcA, &e.refA}, {w.svcB, &e.svcB, &e.refB}} {
		if *p.b, err = (grid.Spec{Grid: p.g}).Expand(); err != nil {
			return nil, err
		}
		if *p.ref, err = referenceFor(ctx, *p.b, &e); err != nil {
			return nil, err
		}
	}
	return &e, nil
}

// referenceFor reuses the reference of an identical batch already
// collected.
func referenceFor(ctx context.Context, b *grid.Batch, e *expanded) (*reference, error) {
	h, err := b.Hash()
	if err != nil {
		return nil, err
	}
	for _, prev := range []struct {
		b   *grid.Batch
		ref *reference
	}{{e.grid, e.ref}, {e.svcA, e.refA}} {
		if prev.b == nil || prev.ref == nil {
			continue
		}
		if ph, err := prev.b.Hash(); err == nil && ph == h {
			return prev.ref, nil
		}
	}
	return buildReference(ctx, b)
}

// minIterations is the fewest measured iterations a run makes, however
// long they take.
const minIterations = 3

// measuredRun is the untraced run: references, then the measured phase
// for about o.seconds, then the end-to-end metrics. Each iteration of the
// measured phase takes one sample of everything: a cold set-up, a grid
// round (grid workloads), and a three-phase service pass.
//
// Every time is the best sample of the run. The host is shared: bursts
// of contention lasting minutes took up to 16 s of CPU from 28-second
// runs and halved the median round rate, yet some rounds of those runs
// still ran at full speed. Contention only ever slows a sample, while a
// slower program slows every sample, so the best one tracks the program
// and not the neighbours. Two values are medians instead: the heap peak,
// which contention does not inflate and whose maximum depends on where
// the collector happened to run, and resubmit_s, whose 15 to 45 samples a
// run are short enough (about a millisecond on grid-trace) that their
// minimum is set by scheduling jitter.
func measuredRun(ctx context.Context, w workload, o options, dir string) (result, error) {
	e, err := expand(ctx, w)
	if err != nil {
		return result{}, err
	}
	var c counts
	for _, r := range []*reference{e.ref, e.refA, e.refB} {
		c.add(len(r.lines), r.bad)
	}

	var setupS, rates, p50, p90, p99, resubmit, overlap, heapMB []float64
	items := 0
	addLatencies := func(latMS []float64) {
		items += len(latMS)
		p50 = append(p50, quantile(latMS, 0.50))
		p90 = append(p90, quantile(latMS, 0.90))
		p99 = append(p99, quantile(latMS, 0.99))
	}
	start := clock.Now()
	for it := 0; it < minIterations || clock.Now().Sub(start).Seconds() < o.seconds; it++ {
		debug.FreeOSMemory()
		su, err := setupOnce(ctx, w, o.seed, dir)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, seconds(su.total))
		if !w.servicePrimary {
			st, err := gridRound(ctx, e.grid, e.ref, dir, false, nil)
			if err != nil {
				return result{}, err
			}
			c.add(e.grid.Len(), st.mismatched)
			rates = append(rates, float64(e.grid.Len())/st.elapsed.Seconds())
			latMS := make([]float64, len(st.lat))
			for i, d := range st.lat {
				latMS[i] = millis(d)
			}
			addLatencies(latMS)
			heapMB = append(heapMB, st.heapPeakMB)
		}
		s, err := servicePass(ctx, w, e, dir, false)
		if err != nil {
			return result{}, err
		}
		c.add(s.attempted, s.failed)
		for _, d := range s.resubmits {
			resubmit = append(resubmit, d.Seconds())
		}
		overlap = append(overlap, s.overlap.Seconds())
		if w.servicePrimary {
			rates = append(rates, float64(e.svcA.Len())/s.submit.Seconds())
			addLatencies(s.latMS)
			heapMB = append(heapMB, s.heapPeakMB)
		}
	}
	ms := map[string]metric{
		"setup_s":      {slices.Min(setupS), "s"},
		"items_per_s":  {slices.Max(rates), "1/s"},
		"item_p50_ms":  {slices.Min(p50), "ms"},
		"item_p90_ms":  {slices.Min(p90), "ms"},
		"item_p99_ms":  {slices.Min(p99), "ms"},
		"peak_heap_mb": {median(heapMB), "MB"},
		"resubmit_s":   {median(resubmit), "s"},
		"overlap_s":    {slices.Min(overlap), "s"},
	}
	fmt.Fprintf(os.Stderr, "%s: %d iterations, %d item latencies, %d resubmits; items/s by round:",
		w.name, len(setupS), items, len(resubmit))
	for _, r := range rates {
		fmt.Fprintf(os.Stderr, " %.1f", r)
	}
	fmt.Fprintln(os.Stderr)
	return c.result(ms), nil
}

// sortedKeys returns m's keys in increasing order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
