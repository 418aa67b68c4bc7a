package exp

import (
	"context"
	"fmt"

	"repro/internal/cachecfg"
	"repro/internal/components"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/opt"
	"repro/internal/sweep"
	"repro/internal/units"
)

// fig1Cache is the cache studied in Figure 1 and Section 4: 16 KB.
func fig1Cache() cachecfg.Config { return cachecfg.L1(16 * cachecfg.KB) }

// Fig1 reproduces Figure 1: leakage power vs access time for a 16 KB cache
// along four one-dimensional knob slices under a uniform (Scheme III)
// assignment — Tox fixed at 10 A and 14 A (Vth swept), Vth fixed at 200 mV
// and 400 mV (Tox swept). Evaluated on the transistor-level netlists.
func (e *Env) Fig1(ctx context.Context) (Figure, error) {
	if err := ctx.Err(); err != nil {
		return Figure{}, err
	}
	d, err := e.design(fig1Cache())
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID:     "fig1",
		Title:  "Fixed Vth vs fixed Tox (16KB cache)",
		XLabel: "access time (ps)",
		YLabel: "leakage power (mW)",
	}
	vths := units.GridSteps(0.20, 0.50, 0.01)
	toxs := units.GridSteps(10, 14, 0.1)

	slice := func(name string, ops []device.OperatingPoint) Series {
		s := Series{Name: name}
		for _, op := range ops {
			a := components.Uniform(op)
			s.X = append(s.X, units.ToPS(d.Cache.AccessTime(a)))
			s.Y = append(s.Y, units.ToMW(d.Cache.Leakage(a).Total()))
		}
		return s
	}
	fig.Series = []Series{
		slice("Tox=10A", opt.VthOnlyGrid(vths, 10)),
		slice("Tox=14A", opt.VthOnlyGrid(vths, 14)),
		slice("Vth=200mV", opt.ToxOnlyGrid(toxs, 0.20)),
		slice("Vth=400mV", opt.ToxOnlyGrid(toxs, 0.40)),
	}
	return fig, nil
}

// SchemeComparison reproduces the Section 4 scheme study: minimum leakage of
// Schemes I, II, III for a 16 KB cache across a sweep of delay constraints.
func (e *Env) SchemeComparison(ctx context.Context) (Table, error) {
	d, err := e.design(fig1Cache())
	if err != nil {
		return Table{}, err
	}
	ops := core.SharedKnobGrid()
	lo, hi := opt.FeasibleDelayRange(d.Model, ops)

	t := Table{
		ID:    "tab-schemes",
		Title: "Scheme I vs II vs III minimum leakage (16KB cache)",
		Columns: []string{"delay budget (ps)", "Scheme I (mW)", "Scheme II (mW)",
			"Scheme III (mW)", "III/II", "II/I"},
		Notes: []string{
			"paper: III worst, I best, II only slightly behind I and the preferred (economical) scheme",
		},
	}
	// One worker per delay budget; rows are collected in budget order so the
	// table matches a sequential run byte for byte.
	fracs := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	rows, err := sweep.MapCtx(ctx, len(fracs), e.workers(), func(ctx context.Context, i int) ([]string, error) {
		budget := lo + fracs[i]*(hi-lo)
		r1, err := opt.OptimizeSchemeICtx(ctx, d.Model, ops, budget)
		if err != nil {
			return nil, err
		}
		r2, err := opt.OptimizeSchemeIICtx(ctx, d.Model, ops, budget)
		if err != nil {
			return nil, err
		}
		r3, err := opt.OptimizeSchemeIIICtx(ctx, d.Model, ops, budget)
		if err != nil {
			return nil, err
		}
		if !r1.Feasible || !r2.Feasible || !r3.Feasible {
			return nil, nil
		}
		return []string{
			fmt.Sprintf("%.0f", units.ToPS(budget)),
			fmt.Sprintf("%.4f", units.ToMW(r1.LeakageW)),
			fmt.Sprintf("%.4f", units.ToMW(r2.LeakageW)),
			fmt.Sprintf("%.4f", units.ToMW(r3.LeakageW)),
			fmt.Sprintf("%.2f", r3.LeakageW/r2.LeakageW),
			fmt.Sprintf("%.2f", r2.LeakageW/r1.LeakageW),
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	for _, row := range rows {
		if row != nil {
			t.AddRow(row...)
		}
	}
	return t, nil
}

// SchemeAssignments reports the optimal Scheme II assignments across
// budgets, demonstrating the paper's structural finding: high Vth and thick
// Tox in the cell array, aggressive values in the periphery.
func (e *Env) SchemeAssignments(ctx context.Context) (Table, error) {
	d, err := e.design(fig1Cache())
	if err != nil {
		return Table{}, err
	}
	ops := core.SharedKnobGrid()
	lo, hi := opt.FeasibleDelayRange(d.Model, ops)

	t := Table{
		ID:    "tab-assignments",
		Title: "Optimal Scheme II assignments (16KB cache)",
		Columns: []string{"delay budget (ps)", "cell Vth (V)", "cell Tox (A)",
			"periph Vth (V)", "periph Tox (A)"},
		Notes: []string{
			"paper: high Vth / thick Tox always in the cell array; periphery set low to meet delay",
		},
	}
	for _, frac := range []float64{0.3, 0.45, 0.6, 0.75, 0.9} {
		budget := lo + frac*(hi-lo)
		r, err := opt.OptimizeSchemeIICtx(ctx, d.Model, ops, budget)
		if err != nil {
			return Table{}, err
		}
		if !r.Feasible {
			continue
		}
		cell := r.Assignment[components.PartCellArray]
		peri := r.Assignment[components.PartDecoder]
		t.AddRow(
			fmt.Sprintf("%.0f", units.ToPS(budget)),
			fmt.Sprintf("%.3f", cell.Vth),
			fmt.Sprintf("%.2f", cell.ToxAngstrom()),
			fmt.Sprintf("%.3f", peri.Vth),
			fmt.Sprintf("%.2f", peri.ToxAngstrom()),
		)
	}
	return t, nil
}

// KnobSensitivity reproduces the Section 4 conclusion experiment: with one
// knob pinned, how much can the other move leakage and delay? It reports the
// delay span and leakage span of each slice of Figure 1, plus the paper's
// recommended strategy (Tox pinned conservatively high, Vth free) against
// the converse.
func (e *Env) KnobSensitivity(ctx context.Context) (Table, error) {
	d, err := e.design(fig1Cache())
	if err != nil {
		return Table{}, err
	}
	c, m := d.Cache, d.Model
	vths := units.GridSteps(0.20, 0.50, 0.005)
	toxs := units.GridSteps(10, 14, 0.05)

	span := func(ops []device.OperatingPoint) (dspan, lratio float64) {
		dmin, dmax := 1e99, 0.0
		lmin, lmax := 1e99, 0.0
		for _, op := range ops {
			a := components.Uniform(op)
			d := c.AccessTime(a)
			l := c.Leakage(a).Total()
			if d < dmin {
				dmin = d
			}
			if d > dmax {
				dmax = d
			}
			if l < lmin {
				lmin = l
			}
			if l > lmax {
				lmax = l
			}
		}
		return dmax - dmin, lmax / lmin
	}

	t := Table{
		ID:      "tab-knob",
		Title:   "Knob sensitivity (16KB cache, uniform assignment)",
		Columns: []string{"slice", "delay span (ps)", "leakage max/min"},
		Notes: []string{
			"paper: leakage more sensitive to Tox than Vth; delay range narrower when Vth fixed",
			"strategy rows: minimum leakage at a mid delay budget when only the free knob may vary",
		},
	}
	for _, row := range []struct {
		name string
		ops  []device.OperatingPoint
	}{
		{"Tox fixed 10A (Vth swept)", opt.VthOnlyGrid(vths, 10)},
		{"Tox fixed 14A (Vth swept)", opt.VthOnlyGrid(vths, 14)},
		{"Vth fixed 0.20V (Tox swept)", opt.ToxOnlyGrid(toxs, 0.20)},
		{"Vth fixed 0.40V (Tox swept)", opt.ToxOnlyGrid(toxs, 0.40)},
	} {
		d, l := span(row.ops)
		t.AddRow(row.name, fmt.Sprintf("%.0f", units.ToPS(d)), fmt.Sprintf("%.1f", l))
	}

	// Strategy comparison at a mid budget.
	full := opt.PairsFromGrid(vths, units.GridSteps(10, 14, 0.25))
	lo, hi := opt.FeasibleDelayRange(m, full)
	budget := lo + 0.55*(hi-lo)
	strategies := []struct {
		name string
		ops  []device.OperatingPoint
	}{
		{"strategy: Tox pinned 14A, Vth free", opt.VthOnlyGrid(vths, 14)},
		{"strategy: Tox pinned 12A, Vth free", opt.VthOnlyGrid(vths, 12)},
		{"strategy: Vth pinned 0.30V, Tox free", opt.ToxOnlyGrid(toxs, 0.30)},
		{"strategy: both free", full},
	}
	for _, s := range strategies {
		r, err := opt.OptimizeSchemeIICtx(ctx, m, s.ops, budget)
		if err != nil {
			return Table{}, err
		}
		leak := "infeasible"
		if r.Feasible {
			leak = fmt.Sprintf("%.4f mW", units.ToMW(r.LeakageW))
		}
		t.AddRow(s.name, fmt.Sprintf("@%.0f", units.ToPS(budget)), leak)
	}
	return t, nil
}
