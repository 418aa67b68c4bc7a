package exp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cachecfg"
	"repro/internal/components"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/opt"
	"repro/internal/sweep"
	"repro/internal/units"
)

// l1Fixed is the L1 used in the L2 experiments (paper: "we fix the size of
// an L1 cache and assign the default Vth and Tox").
func l1Fixed() cachecfg.Config { return cachecfg.L1(16 * cachecfg.KB) }

// twoLevelFor assembles the optimizer input for one (L1 size, L2 size)
// from the Env's miss matrix, once both designs pass the Env's fit gate.
func (e *Env) twoLevelFor(ctx context.Context, l1Size, l2Size int) (tl opt.TwoLevel, err error) {
	mm, err := e.MissMatrixCtx(ctx)
	if err != nil {
		return tl, err
	}
	if _, err := e.design(cachecfg.L1(l1Size)); err != nil {
		return tl, err
	}
	if _, err := e.design(cachecfg.L2(l2Size)); err != nil {
		return tl, err
	}
	return core.TwoLevel(l1Size, l2Size, mm, mem.DefaultDDR())
}

// commonL2AMATTarget returns the AMAT constraint of the L2 experiments: the
// AMAT that the mid-size (1 MB) L2 achieves with fully conservative knobs,
// plus a small margin for fitted-model noise. The paper's experiment holds
// AMAT equal while comparing L2 organizations; with this target a small,
// high-miss L2 must buy the missing speed with leaky knobs, a mid-size L2
// rides at its most conservative point, and an oversized L2 pays for its
// slow access with aggressive knobs *and* carries the most cells — exactly
// the "bigger is better, up to a point" mechanism of Section 5.
func (e *Env) commonL2AMATTarget(ctx context.Context, margin float64) (float64, error) {
	a1 := components.Uniform(opt.DefaultOP())
	tech := core.SharedTechnology()
	conservative := components.Uniform(device.OperatingPoint{Vth: tech.VthMax, ToxM: tech.ToxMax})
	tl, err := e.twoLevelFor(ctx, l1Fixed().SizeBytes, 1*cachecfg.MB)
	if err != nil {
		return 0, err
	}
	return tl.AMAT(a1, conservative) * margin, nil
}

// L2SizeSweep reproduces the Section 5 L2 experiments. With split=false it
// is the first experiment — a single (Vth, Tox) pair in the L2, where bigger
// L2s win (their lower miss rates let the pair be set conservatively) up to
// a point of diminishing returns. With split=true the L2's cells and
// periphery get separate pairs, and smaller L2s win.
func (e *Env) L2SizeSweep(ctx context.Context, split bool) (Table, error) {
	// Experiment (a) sits right at the 1MB-conservative point, where the
	// "bigger L2 leaks less" trade shows; experiment (b) tightens the target
	// ~3% so the knob split has live speed to buy back.
	margin := 1.002
	if split {
		margin = 1.03
	}
	return e.l2SizeSweepAt(ctx, margin, split)
}

// l2SizeSweepAt is L2SizeSweep at an explicit AMAT margin. The margin is a
// parameter (not Env state) so concurrent experiments never observe each
// other's overrides.
func (e *Env) l2SizeSweepAt(ctx context.Context, margin float64, split bool) (Table, error) {
	target, err := e.commonL2AMATTarget(ctx, margin)
	if err != nil {
		return Table{}, err
	}
	scheme := opt.SchemeIII
	id, title := "tab-l2-single", "L2 size sweep, single (Vth,Tox) pair in L2, equal AMAT"
	if split {
		scheme = opt.SchemeII
		id, title = "tab-l2-split", "L2 size sweep, split core/periphery pairs in L2, equal AMAT"
	}
	t := Table{
		ID:    id,
		Title: title,
		Columns: []string{"L2 size", "L2 local miss", "cache leakage (mW)", "AMAT (ps)",
			"L2 cell (Vth,Tox)", "L2 periph (Vth,Tox)"},
	}
	if split {
		t.Notes = append(t.Notes,
			"paper: with split pairs the cells stay conservative and the periphery buys the speed;",
			"meeting this AMAT with a small split L2 beats growing a single-pair L2")
	} else {
		t.Notes = append(t.Notes,
			"paper: with one pair, bigger L2 generally leaks less under equal AMAT, up to diminishing returns")
	}

	ops := core.SharedKnobGrid()
	a1 := components.Uniform(opt.DefaultOP())

	// One worker per L2 size; rows and the best-size fold happen afterwards
	// in size order, matching the sequential table byte for byte.
	sizes := cachecfg.L2Sizes()
	type sizeRow struct {
		row  []string
		leak float64
		ok   bool
	}
	rows, err := sweep.MapCtx(ctx, len(sizes), e.workers(), func(ctx context.Context, i int) (sizeRow, error) {
		l2Size := sizes[i]
		tl, err := e.twoLevelFor(ctx, l1Fixed().SizeBytes, l2Size)
		if err != nil {
			return sizeRow{}, err
		}
		r, err := tl.OptimizeL2Ctx(ctx, scheme, a1, ops, target)
		if err != nil {
			return sizeRow{}, err
		}
		if !r.Feasible {
			return sizeRow{row: []string{kbLabel(l2Size), fmt.Sprintf("%.3f", tl.M2), "infeasible", "-", "-", "-"}}, nil
		}
		cell := r.L2Assignment[components.PartCellArray]
		peri := r.L2Assignment[components.PartDecoder]
		return sizeRow{
			row: []string{
				kbLabel(l2Size),
				fmt.Sprintf("%.3f", tl.M2),
				fmt.Sprintf("%.3f", units.ToMW(r.LeakageW)),
				fmt.Sprintf("%.0f", units.ToPS(r.AMATS)),
				cell.String(),
				peri.String(),
			},
			leak: r.LeakageW,
			ok:   true,
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	best, bestLeak := "", math.Inf(1)
	for i, sr := range rows {
		t.AddRow(sr.row...)
		if sr.ok && sr.leak < bestLeak {
			bestLeak = sr.leak
			best = kbLabel(sizes[i])
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("minimum-leakage L2 size: %s", best))
	return t, nil
}

// L1Sweep reproduces the Section 5 L1 experiment: given a fixed L2, the key
// to minimizing total leakage is a small L1 (local L1 miss rates barely vary
// from 4K to 64K).
func (e *Env) L1Sweep(ctx context.Context) (Table, error) {
	const l2Size = 512 * cachecfg.KB
	mm, err := e.MissMatrixCtx(ctx)
	if err != nil {
		return Table{}, err
	}
	ops := core.SharedKnobGrid()
	// Conservative fixed L2 assignment (cells slow, periphery moderate).
	a2 := components.Split(opt.ConservativeOP(), opt.DefaultOP())

	// Common AMAT target: the worst fast-corner AMAT across L1 sizes + margin.
	amats, err := sweep.MapCtx(ctx, len(cachecfg.L1Sizes()), e.workers(), func(ctx context.Context, i int) (float64, error) {
		tl, err := e.twoLevelFor(ctx, cachecfg.L1Sizes()[i], l2Size)
		if err != nil {
			return 0, err
		}
		return tl.AMAT(components.Uniform(opt.DefaultOP()), a2), nil
	})
	if err != nil {
		return Table{}, err
	}
	worst := 0.0
	for _, am := range amats {
		if am > worst {
			worst = am
		}
	}
	target := worst * 1.02

	t := Table{
		ID:    "tab-l1",
		Title: "L1 size sweep with fixed 512KB L2, equal AMAT",
		Columns: []string{"L1 size", "L1 local miss", "total leakage (mW)",
			"L1 leakage (mW)", "AMAT (ps)"},
		Notes: []string{
			"paper: L1 local miss rates are low and vary little from 4K to 64K, so a small L1 minimizes leakage",
		},
	}
	sizes := cachecfg.L1Sizes()
	type sizeRow struct {
		row  []string
		leak float64
		ok   bool
	}
	rows, err := sweep.MapCtx(ctx, len(sizes), e.workers(), func(ctx context.Context, i int) (sizeRow, error) {
		l1Size := sizes[i]
		tl, err := e.twoLevelFor(ctx, l1Size, l2Size)
		if err != nil {
			return sizeRow{}, err
		}
		r, err := tl.OptimizeL1Ctx(ctx, opt.SchemeII, a2, ops, target)
		if err != nil {
			return sizeRow{}, err
		}
		if !r.Feasible {
			return sizeRow{row: []string{kbLabel(l1Size), fmt.Sprintf("%.3f", mm.L1Local[l1Size]), "infeasible", "-", "-"}}, nil
		}
		l1Leak := tl.L1.LeakageW(r.L1Assignment)
		return sizeRow{
			row: []string{
				kbLabel(l1Size),
				fmt.Sprintf("%.3f", mm.L1Local[l1Size]),
				fmt.Sprintf("%.3f", units.ToMW(r.LeakageW)),
				fmt.Sprintf("%.3f", units.ToMW(l1Leak)),
				fmt.Sprintf("%.0f", units.ToPS(r.AMATS)),
			},
			leak: r.LeakageW,
			ok:   true,
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	best, bestLeak := "", math.Inf(1)
	for i, sr := range rows {
		t.AddRow(sr.row...)
		if sr.ok && sr.leak < bestLeak {
			bestLeak = sr.leak
			best = kbLabel(sizes[i])
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("minimum-leakage L1 size: %s", best))
	return t, nil
}

// MissRateTable reports the architectural inputs (Section 5's "architectural
// simulations"): local miss rates per suite and the suite average.
func (e *Env) MissRateTable(ctx context.Context) (Table, error) {
	ms, err := e.SuiteMatricesCtx(ctx)
	if err != nil {
		return Table{}, err
	}
	avg, err := e.MissMatrixCtx(ctx)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "tab-missrates",
		Title:   "Local miss rates per workload (L2 rates at L1=16KB)",
		Columns: []string{"workload", "L1 4K", "L1 16K", "L1 64K", "L2 256K", "L2 1M", "L2 4M"},
	}
	add := func(name string, l1 map[int]float64, l2 map[int]map[int]float64) {
		t.AddRow(name,
			fmt.Sprintf("%.3f", l1[4*cachecfg.KB]),
			fmt.Sprintf("%.3f", l1[16*cachecfg.KB]),
			fmt.Sprintf("%.3f", l1[64*cachecfg.KB]),
			fmt.Sprintf("%.3f", l2[16*cachecfg.KB][256*cachecfg.KB]),
			fmt.Sprintf("%.3f", l2[16*cachecfg.KB][1*cachecfg.MB]),
			fmt.Sprintf("%.3f", l2[16*cachecfg.KB][4*cachecfg.MB]),
		)
	}
	for _, m := range ms {
		add(m.Workload, m.L1Local, m.L2Local)
	}
	add(avg.Workload, avg.L1Local, avg.L2Local)
	return t, nil
}
