package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cachecfg"
	"repro/internal/components"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dist/journal"
	"repro/internal/grid"
	"repro/internal/mem"
	"repro/internal/opt"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/work"
)

// span is one timed call into a layer. Spans of one design point share
// Trace (the point's index); Parent is the enclosing span's ID, 0 for a
// root. Count is the work inside the span where it varies (accesses
// simulated).
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) add(trace, id, parent int, name string, start, end time.Time, count int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds(), Count: count,
	})
}

// stage runs fn inside a child span of parent.
func (t *tracer) stage(trace, parent int, name string, count int64, fn func() error) error {
	start := clock.Now()
	err := fn()
	t.add(trace, t.newID(), parent, name, start, clock.Now(), count)
	return err
}

// write stores the spans as NDJSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// The stages of one design point, in the order scenario.RunCtx calls
// them.
const (
	stageConfig  = "grid.config_at"
	stageProfile = "profile.lookup"
	stageSim     = "sim.matrix"
	stageDesign  = "core.design"
	stageOpt     = "opt.l2"
	stageEncode  = "scenario.encode"
)

var stages = []string{stageConfig, stageProfile, stageSim, stageDesign, stageOpt, stageEncode}

// suitesFor selects a workload's trace suites exactly as scenario.RunCtx
// does: one suite, or all three for "average".
func suitesFor(workload string, seed int64) []trace.Params {
	all := trace.Suites(seed)
	if workload == "average" {
		return all
	}
	for _, p := range all {
		if p.Name == workload {
			return []trace.Params{p}
		}
	}
	return nil
}

// rebuilder rebuilds each design point of a traced grid round through
// the public functions scenario.RunCtx calls, in the same order, with a
// span around each, and checks the rebuilt line against RunItem's.
type rebuilder struct {
	b     *grid.Batch
	tr    *tracer
	evals map[int]int // per scheme: objective evaluations of one L2 search

	mu                          sync.Mutex
	points, feasible, evaluated int
	mismatched                  int
}

// after is the timedBatch hook: it records the item's own span, then
// rebuilds the point.
func (r *rebuilder) after(ctx context.Context, i int, line []byte, start time.Time, d time.Duration) error {
	r.tr.add(i, r.tr.newID(), 0, "work.item", start, start.Add(d), 0)
	got, feasible, evaluated, err := r.rebuild(ctx, i)
	if err != nil {
		return fmt.Errorf("rebuilding point %d: %w", i, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.points++
	r.evaluated += evaluated
	if feasible {
		r.feasible++
	}
	if !bytes.Equal(got, line) {
		r.mismatched++
	}
	return nil
}

// rebuild mirrors scenario.RunCtx for a grid point (grids carry no tuple
// budgets). It returns the point's line, whether the L2 search was
// feasible, and how many objective evaluations the search made.
func (r *rebuilder) rebuild(ctx context.Context, i int) ([]byte, bool, int, error) {
	tr := r.tr
	root := tr.newID()
	rootStart := clock.Now()
	var cfg scenario.Config
	_ = tr.stage(i, root, stageConfig, 0, func() error {
		cfg = r.b.ConfigAt(i)
		return nil
	})
	if len(cfg.TupleBudgets) > 0 {
		return nil, false, 0, fmt.Errorf("tuple budgets are not rebuilt")
	}
	l1Size, l2Size := cfg.L1KB*cachecfg.KB, cfg.L2KB*cachecfg.KB
	suites := suitesFor(cfg.Workload, cfg.Seed)
	build, name, count := sim.BuildSuiteMatricesCtx, stageSim, int64(cfg.Accesses*len(suites))
	if cfg.Fidelity == profile.FidelityAnalytical {
		build, name, count = profile.BuildSuiteMatricesCtx, stageProfile, 0
	}
	var avg *sim.MissMatrix
	if err := tr.stage(i, root, name, count, func() error {
		ms, err := build(ctx, suites, []int{l1Size}, []int{l2Size}, cfg.Accesses)
		if err != nil {
			return err
		}
		avg, err = sim.Average(ms)
		return err
	}); err != nil {
		return nil, false, 0, err
	}
	m1, m2 := avg.L1Local[l1Size], avg.L2Local[l1Size][l2Size]

	var l1d, l2d *core.CacheDesign
	if err := tr.stage(i, root, stageDesign, 0, func() error {
		var err error
		if l1d, err = core.SharedDesign(cachecfg.L1(l1Size)); err != nil {
			return err
		}
		l2d, err = core.SharedDesign(cachecfg.L2(l2Size))
		return err
	}); err != nil {
		return nil, false, 0, err
	}
	memSpec := mem.DefaultDDR()
	if cfg.FastMemory {
		memSpec = mem.FastDDR()
	}
	tl := &opt.TwoLevel{L1: l1d.Model, L2: l2d.Model, M1: m1, M2: m2, Mem: memSpec}
	if err := tl.Validate(); err != nil {
		return nil, false, 0, err
	}
	res := scenario.Result{Name: cfg.Name, M1: m1, M2: m2}
	a1 := components.Uniform(opt.DefaultOP())
	budget := units.FromPS(cfg.AMATBudgetPS)
	if budget == 0 {
		tech := core.SharedTechnology()
		fast := tl.AMAT(a1, components.Uniform(device.OP(tech.VthMin, 10)))
		slow := tl.AMAT(a1, components.Uniform(device.OP(tech.VthMax, 14)))
		budget = (fast + slow) / 2
	}
	res.AMATBudgetPS = units.ToPS(budget)

	var out opt.TwoLevelResult
	if err := tr.stage(i, root, stageOpt, 0, func() error {
		var err error
		out, err = tl.OptimizeL2Ctx(ctx, opt.Scheme(cfg.Scheme), a1, core.SharedKnobGrid(), budget)
		return err
	}); err != nil {
		return nil, false, 0, err
	}
	res.L2Optimization.Feasible = out.Feasible
	if out.Feasible {
		res.L2Optimization.LeakageMW = units.ToMW(out.LeakageW)
		res.L2Optimization.AMATPS = units.ToPS(out.AMATS)
		res.L2Optimization.EnergyPJ = units.ToPJ(out.TotalEnergyJ)
		res.L2Optimization.CellKnobs = out.L2Assignment[components.PartCellArray].String()
		res.L2Optimization.PeriKnobs = out.L2Assignment[components.PartDecoder].String()
	}

	var line []byte
	if err := tr.stage(i, root, stageEncode, 0, func() error {
		var err error
		line, err = res.NDJSONLine()
		return err
	}); err != nil {
		return nil, false, 0, err
	}
	tr.add(i, root, 0, "point", rootStart, clock.Now(), 0)

	// OptimizeL2Ctx searches only when the L1 leaves the L2 a delay
	// budget; the search's evaluation count depends on the scheme alone.
	evaluated := 0
	if _, ok := tl.L2DelayBudget(a1, budget); ok {
		evaluated = r.evals[cfg.Scheme]
	}
	return line, out.Feasible, evaluated, nil
}

// evalCounts measures, per scheme of the grid, how many objective
// evaluations one L2 knob search makes (Scheme II and III scans do not
// depend on the budget).
func evalCounts(ctx context.Context, b *grid.Batch, schemes []int) (map[int]int, error) {
	d, err := core.SharedDesign(cachecfg.L2(b.ConfigAt(0).L2KB * cachecfg.KB))
	if err != nil {
		return nil, err
	}
	out := make(map[int]int, len(schemes))
	for _, s := range schemes {
		r, err := opt.OptimizeCtx(ctx, opt.Scheme(s), d.Model, core.SharedKnobGrid(), math.Inf(1))
		if err != nil {
			return nil, err
		}
		out[s] = r.Evaluated
	}
	return out, nil
}

// accuracyPass compares the analytical miss rates with the trace-driven
// simulator's on every (L1, L2, workload) pair of grid-trace, with a span
// around each call. It returns the largest absolute miss-rate difference
// and the time to build the three suite profiles.
func accuracyPass(ctx context.Context, seed int64, tr *tracer, traceBase int) (float64, time.Duration, error) {
	var g grid.Grid
	for _, w := range workloads(seed) {
		if w.name == "grid-trace" {
			g = w.grid
		}
	}
	n := g.Base.Accesses
	start := clock.Now()
	memo, err := buildProfiles(ctx, seed, n)
	if err != nil {
		return 0, 0, err
	}
	build := clock.Now().Sub(start)
	type pair struct {
		l1, l2   int
		workload string
	}
	var pairs []pair
	for _, l1 := range g.Axes.L1KB {
		for _, l2 := range g.Axes.L2KB {
			for _, wl := range g.Axes.Workload {
				pairs = append(pairs, pair{l1 * cachecfg.KB, l2 * cachecfg.KB, wl})
			}
		}
	}
	errs, err := sweep.MapCtx(ctx, len(pairs), workers, func(ctx context.Context, k int) (float64, error) {
		p := pairs[k]
		suites := suitesFor(p.workload, seed)
		id := traceBase + k
		root := tr.newID()
		rootStart := clock.Now()
		var sm, pm *sim.MissMatrix
		if err := tr.stage(id, root, stageSim, int64(n*len(suites)), func() error {
			ms, err := sim.BuildSuiteMatricesCtx(ctx, suites, []int{p.l1}, []int{p.l2}, n)
			if err != nil {
				return err
			}
			sm, err = sim.Average(ms)
			return err
		}); err != nil {
			return 0, err
		}
		if err := tr.stage(id, root, stageProfile, 0, func() error {
			ms := make([]*sim.MissMatrix, len(suites))
			for j, s := range suites {
				var err error
				if ms[j], err = memo.BuildMissMatrixCtx(ctx, s, []int{p.l1}, []int{p.l2}, n); err != nil {
					return err
				}
			}
			var err error
			pm, err = sim.Average(ms)
			return err
		}); err != nil {
			return 0, err
		}
		tr.add(id, root, 0, "accuracy", rootStart, clock.Now(), 0)
		return math.Max(math.Abs(sm.L1Local[p.l1]-pm.L1Local[p.l1]),
			math.Abs(sm.L2Local[p.l1][p.l2]-pm.L2Local[p.l1][p.l2])), nil
	})
	if err != nil {
		return 0, 0, err
	}
	worst := 0.0
	for _, e := range errs {
		worst = math.Max(worst, e)
	}
	return worst, build, nil
}

// timeJournal records the lines into a fresh checkpoint journal of the
// batch, timing each Record, then times replaying it.
func timeJournal(dir string, b work.Batch, lines [][]byte) ([]float64, time.Duration, error) {
	h, err := work.Header(b)
	if err != nil {
		return nil, 0, err
	}
	path := filepath.Join(dir, "timed.journal")
	jr, err := journal.Create(path, h)
	if err != nil {
		return nil, 0, err
	}
	recordUS := make([]float64, 0, len(lines))
	for i, l := range lines {
		start := clock.Now()
		if err := jr.Record(i, l); err != nil {
			jr.Close()
			return nil, 0, err
		}
		recordUS = append(recordUS, micros(clock.Now().Sub(start)))
	}
	if err := jr.Close(); err != nil {
		return nil, 0, err
	}
	start := clock.Now()
	done, err := journal.Replay(path, h)
	replay := clock.Now().Sub(start)
	if err != nil {
		return nil, 0, err
	}
	if len(done) != len(lines) {
		return nil, 0, fmt.Errorf("journal replay: %d of %d lines", len(done), len(lines))
	}
	return recordUS, replay, nil
}

// tracedRun is the per-layer run: set-up, an untraced and a traced round
// of the grid pass, a traced service pass, the journal on the run's own
// lines, and the accuracy pass. Every span is written out at the end.
func tracedRun(ctx context.Context, w workload, o options, dir string) (result, error) {
	setups, err := setup(ctx, w, o.seed, dir)
	if err != nil {
		return result{}, err
	}
	e, err := expand(ctx, w)
	if err != nil {
		return result{}, err
	}
	var c counts
	for _, r := range []*reference{e.ref, e.refA, e.refB} {
		c.add(len(r.lines), r.bad)
	}
	n := e.grid.Len()

	plain, err := gridRound(ctx, e.grid, e.ref, dir, false, nil)
	if err != nil {
		return result{}, err
	}
	c.add(n, plain.mismatched)
	evals, err := evalCounts(ctx, e.grid, w.grid.Axes.Scheme)
	if err != nil {
		return result{}, err
	}
	tr := &tracer{base: clock.Now()}
	rb := &rebuilder{b: e.grid, tr: tr, evals: evals}
	traced, err := gridRound(ctx, e.grid, e.ref, dir, true, rb.after)
	if err != nil {
		return result{}, err
	}
	c.add(n, traced.mismatched)
	c.add(rb.points, rb.mismatched)

	svc, err := servicePass(ctx, w, e, dir, true)
	if err != nil {
		return result{}, err
	}
	c.add(svc.attempted, svc.failed)
	recordUS, replay, err := timeJournal(dir, e.grid, e.ref.lines)
	if err != nil {
		return result{}, err
	}
	maxErr, traceProfiles, err := accuracyPass(ctx, o.seed, tr, n)
	if err != nil {
		return result{}, err
	}
	if err := tr.write(spansPath(w.name)); err != nil {
		return result{}, err
	}

	// Per-name span durations; stage self time counts only the design
	// points' spans (the accuracy pass has its own traces).
	byName := map[string][]float64{}
	stageSelf := map[string]time.Duration{}
	var simTime time.Duration
	var simAccesses int64
	for _, s := range tr.spans {
		byName[s.Name] = append(byName[s.Name], micros(s.dur()))
		if s.Name == stageSim {
			simTime += s.dur()
			simAccesses += s.Count
		}
		if s.Trace < n && s.Parent != 0 {
			stageSelf[s.Name] += s.dur()
		}
	}
	var stageTotal time.Duration
	for _, d := range stageSelf {
		stageTotal += d
	}
	fmt.Fprintf(os.Stderr, "%s: stage self time %.3f s of item busy %.3f s; shares:", w.name, stageTotal.Seconds(), traced.busy.Seconds())
	for _, st := range stages {
		fmt.Fprintf(os.Stderr, " %s=%.4f", st, stageSelf[st].Seconds()/stageTotal.Seconds())
	}
	fmt.Fprintln(os.Stderr)

	var setupDesigns, setupProfiles []float64
	for _, s := range setups {
		setupDesigns = append(setupDesigns, seconds(s.designs))
		setupProfiles = append(setupProfiles, seconds(s.profiles))
	}
	profileBuild := median(setupProfiles)
	if profileAccesses(w) == 0 {
		profileBuild = seconds(traceProfiles)
	}
	simRate := 0.0
	if simTime > 0 {
		simRate = float64(simAccesses) / simTime.Seconds()
	}
	ws := svc.wire
	ms := map[string]metric{
		"grid.config_at_us":       {median(byName[stageConfig]), "us"},
		"grid.frontier_add_us":    {median(traced.frontierAddUS), "us"},
		"grid.frontier_points_ms": {traced.frontierPointsMS, "ms"},
		"profile.build_s":         {profileBuild, "s"},
		"profile.lookup_us":       {median(byName[stageProfile]), "us"},
		"profile.max_abs_err":     {maxErr, "ratio"},
		"sim.matrix_ms":           {median(byName[stageSim]) / 1000, "ms"},
		"sim.accesses_per_s":      {simRate, "1/s"},
		"core.design_build_s":     {median(setupDesigns), "s"},
		"core.designs_built":      {float64(setups[0].designsBuilt), "count"},
		"core.design_hit_us":      {median(byName[stageDesign]), "us"},
		"opt.l2_us":               {median(byName[stageOpt]), "us"},
		"opt.evaluated_per_point": {float64(rb.evaluated) / float64(rb.points), "count"},
		"opt.feasible_ratio":      {float64(rb.feasible) / float64(rb.points), "ratio"},
		"scenario.encode_us":      {median(byName[stageEncode]), "us"},
		"work.item_busy_s":        {traced.busy.Seconds(), "s"},
		"work.emit_wait_s":        {traced.emitWait.Seconds(), "s"},
		"work.sink_write_us":      {median(traced.writeUS), "us"},
		"journal.record_us":       {median(recordUS), "us"},
		"journal.replay_s":        {replay.Seconds(), "s"},
		"dist.submit_ms":          {median(ws.submitMS), "ms"},
		"dist.lease_rtt_ms":       {median(ws.leaseMS), "ms"},
		"dist.lease_empty_ratio":  {float64(ws.emptyLeases) / float64(ws.leases), "ratio"},
		"dist.result_rtt_ms":      {median(ws.resultMS), "ms"},
		"dist.heartbeats":         {float64(ws.beats), "count"},
		"dist.unit_exec_ms":       {median(ws.unitMS), "ms"},
		"dist.results_stream_s":   {median(ws.streamS), "s"},
		"store.hits_journal":      {float64(svc.hitsJournal), "count"},
		"store.hits_index":        {float64(svc.hitsIndex), "count"},
		"store.items_executed":    {float64(svc.executed), "count"},
		"spans.coverage_ratio":    {stageTotal.Seconds() / traced.busy.Seconds(), "ratio"},
		"spans.overhead_ratio":    {traced.elapsed.Seconds() / plain.elapsed.Seconds(), "ratio"},
	}
	return c.result(ms), nil
}
