package exp

import (
	"context"
	"fmt"

	"repro/internal/cachecfg"
	"repro/internal/charlib"
	"repro/internal/components"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/opt"
	"repro/internal/units"
)

// fig2System assembles the whole-memory-system optimizer input: 16 KB L1 +
// 512 KB L2 + main memory with the averaged workload statistics.
func (e *Env) fig2System(ctx context.Context) (*opt.MemorySystem, error) {
	tl, err := e.twoLevelFor(ctx, 16*cachecfg.KB, 512*cachecfg.KB)
	if err != nil {
		return nil, err
	}
	return &opt.MemorySystem{TwoLevel: tl}, nil
}

// Fig2 reproduces Figure 2: total energy per access (pJ) vs AMAT (ps) for
// the five (#Tox, #Vth) tuple budgets the paper plots.
func (e *Env) Fig2(ctx context.Context) (Figure, error) {
	ms, err := e.fig2System(ctx)
	if err != nil {
		return Figure{}, err
	}
	vths, toxs := opt.CoarseMenu()

	var fastSA, slowSA opt.SystemAssignment
	for i := range fastSA {
		fastSA[i] = device.OP(0.20, 10)
		slowSA[i] = device.OP(0.50, 14)
	}
	fast := ms.AMATS(fastSA)
	slow := ms.AMATS(slowSA)
	budgets := units.Linspace(fast*1.02, slow, 12)

	fig := Figure{
		ID:     "fig2",
		Title:  "(Tox, Vth) tuple problem — total energy vs AMAT (16KB L1 + 512KB L2 + memory)",
		XLabel: "AMAT (ps)",
		YLabel: "total energy (pJ)",
	}
	for _, b := range opt.Figure2Budgets() {
		s := Series{Name: b.String()}
		curve, err := ms.TupleCurveCtx(ctx, b, vths, toxs, budgets)
		if err != nil {
			return Figure{}, err
		}
		for _, r := range curve {
			if !r.Feasible {
				continue
			}
			s.X = append(s.X, units.ToPS(r.AMATS))
			s.Y = append(s.Y, units.ToPJ(r.EnergyJ))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig2Summary distils Figure 2 into the paper's textual findings: the best
// budget, the (2,2)-vs-(2,3) gap, and the knob comparison.
func (e *Env) Fig2Summary(ctx context.Context) (Table, error) {
	ms, err := e.fig2System(ctx)
	if err != nil {
		return Table{}, err
	}
	vths, toxs := opt.CoarseMenu()

	var fastSA, slowSA opt.SystemAssignment
	for i := range fastSA {
		fastSA[i] = device.OP(0.20, 10)
		slowSA[i] = device.OP(0.50, 14)
	}
	fast := ms.AMATS(fastSA)
	slow := ms.AMATS(slowSA)
	target := fast + 0.25*(slow-fast)

	t := Table{
		ID:      "tab-fig2-summary",
		Title:   fmt.Sprintf("Tuple budgets at AMAT <= %.0f ps", units.ToPS(target)),
		Columns: []string{"budget", "total energy (pJ)", "leakage (mW)", "Vth set (V)", "Tox set (A)"},
		Notes: []string{
			"paper: best is 2 Tox + 3 Vth; 2 Tox + 2 Vth is nearly identical;",
			"1 Tox + 2 Vth beats 2 Tox + 1 Vth (Vth is the stronger knob, restrict Tox count instead)",
		},
	}
	for _, b := range opt.Figure2Budgets() {
		r, err := ms.OptimizeTuplesCtx(ctx, b, vths, toxs, target)
		if err != nil {
			return Table{}, err
		}
		if !r.Feasible {
			t.AddRow(b.String(), "infeasible", "-", "-", "-")
			continue
		}
		t.AddRow(
			b.String(),
			fmt.Sprintf("%.1f", units.ToPJ(r.EnergyJ)),
			fmt.Sprintf("%.2f", units.ToMW(r.LeakageW)),
			formatSet(r.VthSet, "%.2f"),
			formatSet(r.ToxSet, "%.0f"),
		)
	}
	return t, nil
}

// formatSet renders a value set compactly, e.g. "{0.25, 0.45}".
func formatSet(vals []float64, f string) string {
	s := "{"
	for i, v := range vals {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf(f, v)
	}
	return s + "}"
}

// BaselineComparison compares the paper's joint (Vth, Tox) optimization
// against the Vth-only prior art ([7], Kim et al. ICCAD'03) and a Tox-only
// strawman, on the 16 KB cache across delay budgets.
func (e *Env) BaselineComparison(ctx context.Context) (Table, error) {
	d, err := e.design(fig1Cache())
	if err != nil {
		return Table{}, err
	}
	g := charlib.OptimizationGrid()
	full := core.SharedKnobGrid()
	vthOnly := opt.VthOnlyGrid(g.Vths, 12)
	toxOnly := opt.ToxOnlyGrid(g.ToxAs, 0.30)
	lo, hi := opt.FeasibleDelayRange(d.Model, full)

	t := Table{
		ID:    "tab-baseline",
		Title: "Joint knobs vs Vth-only [7] vs Tox-only (16KB, Scheme II)",
		Columns: []string{"delay budget (ps)", "both knobs (mW)", "Vth-only@12A (mW)",
			"Tox-only@0.3V (mW)"},
		Notes: []string{
			"Vth-only is the prior art the paper extends; joint optimization dominates it,",
			"and Vth-only in turn dominates Tox-only (Vth is the stronger knob)",
		},
	}
	fmtRes := func(r opt.Result) string {
		if !r.Feasible {
			return "infeasible"
		}
		return fmt.Sprintf("%.4f", units.ToMW(r.LeakageW))
	}
	for _, frac := range []float64{0.3, 0.45, 0.6, 0.75, 0.9} {
		budget := lo + frac*(hi-lo)
		row := make([]string, 0, 4)
		row = append(row, fmt.Sprintf("%.0f", units.ToPS(budget)))
		for _, grid := range [][]device.OperatingPoint{full, vthOnly, toxOnly} {
			r, err := opt.OptimizeSchemeIICtx(ctx, d.Model, grid, budget)
			if err != nil {
				return Table{}, err
			}
			row = append(row, fmtRes(r))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// FitQuality reports the R^2 of every fitted component model — the Section 3
// claim that the exponential/linear forms hold for all cache components.
func (e *Env) FitQuality(ctx context.Context) (Table, error) {
	t := Table{
		ID:      "tab-fit",
		Title:   "Analytical model fit quality (R^2 over the characterization grid)",
		Columns: []string{"cache", "component", "leakage R^2", "delay R^2", "energy R^2"},
		Notes: []string{
			"paper section 3: total leakage exponential in Vth and Tox; delay linear in Tox,",
			"exponential (small exponent) in Vth — the same forms hold for every component",
		},
	}
	for _, cfg := range []cachecfg.Config{fig1Cache(), cachecfg.L2(512 * cachecfg.KB)} {
		if err := ctx.Err(); err != nil {
			return Table{}, err
		}
		d, err := e.design(cfg)
		if err != nil {
			return Table{}, err
		}
		for _, p := range components.Parts() {
			cm := d.Model.Comps[p]
			t.AddRow(
				cfg.String(),
				p.String(),
				fmt.Sprintf("%.5f", cm.LeakStats.R2),
				fmt.Sprintf("%.5f", cm.DelayStats.R2),
				fmt.Sprintf("%.5f", cm.EnergyStats.R2),
			)
		}
	}
	return t, nil
}
