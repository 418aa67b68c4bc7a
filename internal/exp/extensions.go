package exp

import (
	"context"
	"fmt"

	"repro/internal/cachecfg"
	"repro/internal/components"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/opt"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// This file holds the extension and ablation experiments — studies beyond
// the paper's own evaluation that probe its assumptions and its
// related-work context. Extensions (all.go) lists them; they run by ID
// like any registry experiment.

// ModelVsDirectAblation quantifies the cost of optimizing against the
// fitted analytical models (the paper's approach) instead of the raw
// transistor-level netlists: for each delay budget it optimizes both ways
// and evaluates *both* winners on the netlists.
func (e *Env) ModelVsDirectAblation(ctx context.Context) (Table, error) {
	d, err := e.design(fig1Cache())
	if err != nil {
		return Table{}, err
	}
	dir := opt.Direct{Cache: d.Cache}
	// A coarse grid keeps the direct (netlist-walking) optimizer affordable.
	ops := opt.PairsFromGrid(units.GridSteps(0.20, 0.50, 0.02), units.GridSteps(10, 14, 0.5))
	lo, hi := opt.FeasibleDelayRange(d.Model, ops)

	t := Table{
		ID:    "tab-ablation-model",
		Title: "Ablation: optimize on fitted models vs on raw netlists (16KB, Scheme II)",
		Columns: []string{"budget (ps)", "model-opt leakage (mW)", "direct-opt leakage (mW)",
			"leak ratio", "true delay/budget"},
		Notes: []string{
			"both winners are re-evaluated on the netlists; 'leak ratio' is model-opt/direct-opt;",
			"a ratio below 1 means the model's small delay underestimate admitted a point just",
			"past the true budget ('true delay/budget' quantifies the violation)",
		},
	}
	for _, frac := range []float64{0.35, 0.55, 0.75} {
		budget := lo + frac*(hi-lo)
		rm, err := opt.OptimizeSchemeIICtx(ctx, d.Model, ops, budget)
		if err != nil {
			return Table{}, err
		}
		rd, err := opt.OptimizeSchemeIICtx(ctx, dir, ops, budget)
		if err != nil {
			return Table{}, err
		}
		if !rm.Feasible || !rd.Feasible {
			continue
		}
		trueModelLeak := dir.LeakageW(rm.Assignment)
		trueModelDelay := dir.AccessTimeS(rm.Assignment)
		t.AddRow(
			fmt.Sprintf("%.0f", units.ToPS(budget)),
			fmt.Sprintf("%.4f", units.ToMW(trueModelLeak)),
			fmt.Sprintf("%.4f", units.ToMW(rd.LeakageW)),
			fmt.Sprintf("%.3f", trueModelLeak/rd.LeakageW),
			fmt.Sprintf("%.3f", trueModelDelay/budget),
		)
	}
	return t, nil
}

// DelayCompositionAblation compares the paper's delay-summation assumption
// against an overlapped composition where address flight and row decode
// proceed concurrently.
func (e *Env) DelayCompositionAblation(ctx context.Context) (Table, error) {
	t := Table{
		ID:      "tab-ablation-delay",
		Title:   "Ablation: delay summation (paper) vs overlapped address/decode",
		Columns: []string{"cache", "knobs", "sum (ps)", "overlapped (ps)", "sum/overlap"},
		Notes: []string{
			"the paper sums component delays; overlapping the address bus with the",
			"decoder bounds how conservative that assumption is",
		},
	}
	for _, cfg := range []cachecfg.Config{fig1Cache(), cachecfg.L2(512 * cachecfg.KB)} {
		d, err := e.design(cfg)
		if err != nil {
			return Table{}, err
		}
		for _, op := range []device.OperatingPoint{device.OP(0.20, 10), device.OP(0.35, 12), device.OP(0.50, 14)} {
			a := components.Uniform(op)
			sum := d.Cache.AccessTime(a)
			over := d.Cache.AccessTimeOverlapped(a)
			t.AddRow(cfg.String(), op.String(),
				fmt.Sprintf("%.0f", units.ToPS(sum)),
				fmt.Sprintf("%.0f", units.ToPS(over)),
				fmt.Sprintf("%.3f", sum/over))
		}
	}
	return t, nil
}

// DrowsyExtension evaluates the related-work dynamic technique (drowsy
// cells, [6]) against and combined with the paper's static knob
// optimization, on the 16 KB cache at a mid delay budget.
func (e *Env) DrowsyExtension(ctx context.Context) (Table, error) {
	d, err := e.design(fig1Cache())
	if err != nil {
		return Table{}, err
	}
	ops := core.SharedKnobGrid()
	lo, hi := opt.FeasibleDelayRange(d.Model, ops)
	budget := lo + 0.55*(hi-lo)
	r, err := opt.OptimizeSchemeIICtx(ctx, d.Model, ops, budget)
	if err != nil {
		return Table{}, err
	}
	if !r.Feasible {
		return Table{}, fmt.Errorf("exp: drowsy study budget infeasible")
	}

	t := Table{
		ID:      "tab-ext-drowsy",
		Title:   fmt.Sprintf("Extension: drowsy cells x knob optimization (16KB @ %.0f ps)", units.ToPS(budget)),
		Columns: []string{"configuration", "awake fraction", "leakage (mW)", "vs baseline"},
		Notes: []string{
			"drowsy state: cell supply collapsed to 0.3 Vdd on idle lines (related work [6]);",
			"static knobs and the dynamic technique compose",
		},
	}
	fast := components.Uniform(device.OperatingPoint{Vth: d.Tech.VthMin, ToxM: d.Tech.ToxMin})
	base := d.Cache.Leakage(fast).Total()
	add := func(name string, a components.Assignment, awake float64) error {
		var leak float64
		if awake >= 1 {
			leak = d.Cache.Leakage(a).Total()
		} else {
			l, err := d.Cache.LeakageWithDrowsy(a, awake)
			if err != nil {
				return err
			}
			leak = l.Total()
		}
		t.AddRow(name, fmt.Sprintf("%.2f", awake),
			fmt.Sprintf("%.4f", units.ToMW(leak)),
			fmt.Sprintf("%.1f%%", 100*leak/base))
		return nil
	}
	if err := add("fast knobs (baseline)", fast, 1); err != nil {
		return Table{}, err
	}
	if err := add("fast knobs + drowsy", fast, 0.1); err != nil {
		return Table{}, err
	}
	if err := add("optimized knobs", r.Assignment, 1); err != nil {
		return Table{}, err
	}
	if err := add("optimized knobs + drowsy", r.Assignment, 0.1); err != nil {
		return Table{}, err
	}
	return t, nil
}

// TemperatureSensitivity shows how the optimized leakage moves with die
// temperature — subthreshold conduction is exponential in T, gate
// tunnelling nearly athermal, so the optimum knob balance shifts.
func (e *Env) TemperatureSensitivity(ctx context.Context) (Table, error) {
	t := Table{
		ID:      "tab-ext-temp",
		Title:   "Extension: temperature sensitivity of the optimized 16KB cache",
		Columns: []string{"T (K)", "leakage at fast knobs (mW)", "subthreshold share", "optimized leakage (mW)"},
		Notes: []string{
			"subthreshold leakage rises exponentially with temperature; gate leakage barely moves,",
			"so hot dies lean harder on the Vth knob",
		},
	}
	for _, tempK := range []float64{300, 330, 358, 390} {
		if err := ctx.Err(); err != nil {
			return Table{}, err
		}
		tech := device.Default65nm()
		tech.TempK = tempK
		cache, err := components.New(tech, fig1Cache())
		if err != nil {
			return Table{}, err
		}
		fast := components.Uniform(device.OP(0.20, 10))
		l := cache.Leakage(fast)
		// Optimize on a coarse grid directly (model fits are per-technology).
		dir := opt.Direct{Cache: cache}
		ops := opt.PairsFromGrid(units.GridSteps(0.20, 0.50, 0.025), units.GridSteps(10, 14, 0.5))
		lo, hi := opt.FeasibleDelayRange(dir, ops)
		r, err := opt.OptimizeSchemeIICtx(ctx, dir, ops, lo+0.55*(hi-lo))
		if err != nil {
			return Table{}, err
		}
		optLeak := "infeasible"
		if r.Feasible {
			optLeak = fmt.Sprintf("%.4f", units.ToMW(r.LeakageW))
		}
		t.AddRow(
			fmt.Sprintf("%.0f", tempK),
			fmt.Sprintf("%.3f", units.ToMW(l.Total())),
			fmt.Sprintf("%.2f", l.SubthresholdW/l.Total()),
			optLeak,
		)
	}
	return t, nil
}

// NodeComparison contrasts the 65 nm node with the 45 nm projection,
// substantiating the introduction's claim that leakage overtakes dynamic
// power in future generations.
func (e *Env) NodeComparison(ctx context.Context) (Table, error) {
	t := Table{
		ID:      "tab-ext-node",
		Title:   "Extension: 65nm vs projected 45nm (16KB cache, fast knobs)",
		Columns: []string{"node", "leakage (mW)", "gate share", "dynamic/access (pJ)", "leak energy/access @1GHz (pJ)"},
		Notes: []string{
			"leakage energy per access assumes one access per 1ns cycle;",
			"the projection shows total leakage overtaking dynamic energy at the next node",
		},
	}
	for _, tech := range []*device.Technology{device.Default65nm(), device.Scaled45nm()} {
		cache, err := components.New(tech, fig1Cache())
		if err != nil {
			return Table{}, err
		}
		fast := components.Uniform(device.OperatingPoint{Vth: tech.VthMin, ToxM: tech.ToxMin})
		l := cache.Leakage(fast)
		dyn := cache.DynamicEnergy(fast)
		leakPerCycle := l.Total() * 1e-9
		t.AddRow(
			tech.Name,
			fmt.Sprintf("%.2f", units.ToMW(l.Total())),
			fmt.Sprintf("%.2f", l.GateW/l.Total()),
			fmt.Sprintf("%.2f", units.ToPJ(dyn)),
			fmt.Sprintf("%.2f", units.ToPJ(leakPerCycle)),
		)
	}
	return t, nil
}

// ReplacementAblation reports how the simulator's replacement policy moves
// the architectural inputs (miss rates) the optimization consumes.
func (e *Env) ReplacementAblation(ctx context.Context) (Table, error) {
	t := Table{
		ID:      "tab-ablation-repl",
		Title:   "Ablation: replacement policy vs L1 miss rate (16KB, spec2000-like)",
		Columns: []string{"policy", "L1 local miss rate"},
		Notes:   []string{"the paper's statistics assume LRU; FIFO and random degrade gracefully"},
	}
	p := trace.SPEC2000(e.Seed)
	for _, pol := range []sim.ReplPolicy{sim.LRU, sim.FIFO, sim.Random} {
		if err := ctx.Err(); err != nil {
			return Table{}, err
		}
		gen, err := trace.New(p)
		if err != nil {
			return Table{}, err
		}
		c, err := sim.New(cachecfg.L1(16*cachecfg.KB), pol, sim.WriteBack)
		if err != nil {
			return Table{}, err
		}
		n := e.Accesses / 2
		for i := 0; i < n; i++ {
			a := gen.Next()
			c.Access(a.Addr, a.Write)
		}
		t.AddRow(pol.String(), fmt.Sprintf("%.4f", c.Stats.MissRate()))
	}
	return t, nil
}

// AreaTable reports the Section 2 cost of thick oxide: cell and macro area
// growth across the Tox range.
func (e *Env) AreaTable(ctx context.Context) (Table, error) {
	d, err := e.design(fig1Cache())
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "tab-ext-area",
		Title:   "Extension: area cost of Tox (16KB cache)",
		Columns: []string{"Tox (A)", "scale factor", "macro area (mm^2)", "vs 10A"},
		Notes: []string{
			"thicker oxide forces longer channels and wider cells (paper section 2);",
			"area feeds back into wire lengths, delay and dynamic energy",
		},
	}
	base := d.Cache.AreaM2(components.Uniform(device.OP(0.3, 10)))
	for _, tox := range []float64{10, 11, 12, 13, 14} {
		op := device.OP(0.3, tox)
		area := d.Cache.AreaM2(components.Uniform(op))
		t.AddRow(
			fmt.Sprintf("%.0f", tox),
			fmt.Sprintf("%.3f", d.Tech.ScaleFactor(op)),
			fmt.Sprintf("%.4f", area/1e-6),
			fmt.Sprintf("%.2fx", area/base),
		)
	}
	return t, nil
}

// SystemEnergyPerInstruction runs the CPU model over knob-optimization
// levels, translating cache leakage choices into whole-program energy —
// the "entire processor memory system" framing of Section 5 taken one step
// further.
func (e *Env) SystemEnergyPerInstruction(ctx context.Context) (Table, error) {
	tl, err := e.twoLevelFor(ctx, 16*cachecfg.KB, 512*cachecfg.KB)
	if err != nil {
		return Table{}, err
	}
	proc := cpu.Default65nmCore()
	t := Table{
		ID:      "tab-ext-cpi",
		Title:   "Extension: program-level energy under knob choices (16KB L1 + 512KB L2, 2GHz in-order core)",
		Columns: []string{"knob choice", "CPI", "energy/instr (pJ)", "memory share", "leakage share", "EDP (pJ*ns)"},
	}
	rows := []struct {
		name   string
		a1, a2 components.Assignment
	}{
		{"all fast (0.20V, 10A)", components.Uniform(device.OP(0.20, 10)), components.Uniform(device.OP(0.20, 10))},
		{"all conservative (0.50V, 14A)", components.Uniform(device.OP(0.50, 14)), components.Uniform(device.OP(0.50, 14))},
		{"paper-style split (cons cells, fast periphery)",
			components.Split(device.OP(0.45, 14), device.OP(0.25, 10)),
			components.Split(device.OP(0.50, 14), device.OP(0.30, 11))},
	}
	for _, row := range rows {
		sys := tl.System(row.a1, row.a2)
		m, err := proc.Run(sys)
		if err != nil {
			return Table{}, err
		}
		t.AddRow(row.name,
			fmt.Sprintf("%.3f", m.CPI),
			fmt.Sprintf("%.1f", units.ToPJ(m.EnergyPerInstrJ)),
			fmt.Sprintf("%.2f", m.MemoryShare),
			fmt.Sprintf("%.2f", m.LeakageShare),
			fmt.Sprintf("%.2f", m.EDP()/(1e-12*1e-9)),
		)
	}
	return t, nil
}

// JointOptimization compares the paper's one-level-at-a-time optimization
// against freeing both levels' knobs simultaneously (coordinate descent).
func (e *Env) JointOptimization(ctx context.Context) (Table, error) {
	tl, err := e.twoLevelFor(ctx, 16*cachecfg.KB, 512*cachecfg.KB)
	if err != nil {
		return Table{}, err
	}
	ops := core.SharedKnobGrid()
	fast := tl.AMAT(components.Uniform(device.OP(0.20, 10)), components.Uniform(device.OP(0.20, 10)))
	slow := tl.AMAT(components.Uniform(device.OP(0.50, 14)), components.Uniform(device.OP(0.50, 14)))

	t := Table{
		ID:      "tab-ext-joint",
		Title:   "Extension: joint L1+L2 optimization vs the paper's pinned-L1 flow",
		Columns: []string{"AMAT budget (ps)", "pinned-L1 leakage (mW)", "joint leakage (mW)", "joint gain"},
		Notes: []string{
			"the paper optimizes one level with the other pinned; coordinate descent over",
			"both levels can only do better, and shows how much the pinning costs",
		},
	}
	for _, frac := range []float64{0.3, 0.5, 0.7} {
		target := fast + frac*(slow-fast)
		pinned, err := tl.OptimizeL2Ctx(ctx, opt.SchemeII, components.Uniform(opt.DefaultOP()), ops, target)
		if err != nil {
			return Table{}, err
		}
		joint, err := opt.OptimizeJointCtx(ctx, tl, opt.SchemeII, ops, target, 0)
		if err != nil {
			return Table{}, err
		}
		pinnedStr, gain := "infeasible", "-"
		if pinned.Feasible {
			pinnedStr = fmt.Sprintf("%.3f", units.ToMW(pinned.LeakageW))
		}
		jointStr := "infeasible"
		if joint.Feasible {
			jointStr = fmt.Sprintf("%.3f", units.ToMW(joint.LeakageW))
			if pinned.Feasible {
				gain = fmt.Sprintf("%.2fx", pinned.LeakageW/joint.LeakageW)
			}
		}
		t.AddRow(fmt.Sprintf("%.0f", units.ToPS(target)), pinnedStr, jointStr, gain)
	}
	return t, nil
}

// MemorySensitivity reruns the Figure 2 headline comparison with a faster
// main memory, checking that the paper's tuple conclusions are not an
// artifact of one DRAM operating point.
func (e *Env) MemorySensitivity(ctx context.Context) (Table, error) {
	t := Table{
		ID:      "tab-ext-mem",
		Title:   "Extension: tuple-budget ordering vs main-memory speed",
		Columns: []string{"memory", "E(2Tox+2Vth) pJ", "E(2Tox+1Vth) pJ", "E(1Tox+2Vth) pJ", "Vth knob wins"},
		Notes: []string{
			"the (1 Tox, 2 Vth) <= (2 Tox, 1 Vth) ordering must survive memory-speed changes",
		},
	}
	base, err := e.fig2System(ctx)
	if err != nil {
		return Table{}, err
	}
	vths, toxs := opt.CoarseMenu()
	for _, m := range []mem.Spec{mem.DefaultDDR(), mem.FastDDR()} {
		ms := &opt.MemorySystem{TwoLevel: base.TwoLevel}
		ms.Mem = m
		var fastSA, slowSA opt.SystemAssignment
		for i := range fastSA {
			fastSA[i] = device.OP(0.20, 10)
			slowSA[i] = device.OP(0.50, 14)
		}
		target := ms.AMATS(fastSA) + 0.25*(ms.AMATS(slowSA)-ms.AMATS(fastSA))
		e22, err := ms.OptimizeTuplesCtx(ctx, opt.TupleBudget{NTox: 2, NVth: 2}, vths, toxs, target)
		if err != nil {
			return Table{}, err
		}
		e21, err := ms.OptimizeTuplesCtx(ctx, opt.TupleBudget{NTox: 2, NVth: 1}, vths, toxs, target)
		if err != nil {
			return Table{}, err
		}
		e12, err := ms.OptimizeTuplesCtx(ctx, opt.TupleBudget{NTox: 1, NVth: 2}, vths, toxs, target)
		if err != nil {
			return Table{}, err
		}
		verdict := "no"
		if e12.Feasible && e21.Feasible && e12.EnergyJ <= e21.EnergyJ {
			verdict = "yes"
		}
		fmtE := func(r opt.TupleResult) string {
			if !r.Feasible {
				return "infeasible"
			}
			return fmt.Sprintf("%.1f", units.ToPJ(r.EnergyJ))
		}
		t.AddRow(m.Name, fmtE(e22), fmtE(e21), fmtE(e12), verdict)
	}
	return t, nil
}
