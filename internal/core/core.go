// Package core is the top-level API of the reproduction of
//
//	R. Bai, N.-S. Kim, T. H. Kgil, D. Sylvester, T. Mudge,
//	"Power-Performance Trade-offs in Nanometer-Scale Multi-Level Caches
//	Considering Total Leakage", DATE 2005.
//
// It ties the substrates together into the paper's workflow:
//
//  1. describe a cache organization (size, block, associativity);
//  2. characterize its four components over the (Vth, Tox) grid and fit the
//     paper's analytical leakage/delay models;
//  3. optimize the assignment of Vth and Tox values under delay or AMAT
//     constraints — per component (Scheme I), cell-array-vs-periphery
//     (Scheme II), or uniformly (Scheme III);
//  4. extend to two-level hierarchies and the whole memory system, with
//     miss rates from the trace-driven simulator or the stack-distance
//     profiles (Point, one design point at either fidelity); and
//  5. regenerate every figure and table of the paper's evaluation.
//
// The heavy lifting lives in the internal sub-packages (device, circuit,
// sram, geom, components, fit, charlib, model, trace, sim, mem, amat,
// opt); this package provides the entry points the examples and tools
// consume, and its process-wide memo (SharedDesign, SharedKnobGrid) is the
// one source of cache designs and of the knob grid, with no private copy,
// for scenario, grid and exp alike.
package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cachecfg"
	"repro/internal/charlib"
	"repro/internal/components"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/units"
)

// CacheDesign bundles a transistor-level cache with its fitted analytical
// model — everything needed to study and optimize one cache.
type CacheDesign struct {
	Tech  *device.Technology
	Cfg   cachecfg.Config
	Cache *components.Cache
	Model *model.CacheModel
}

// DesignCache builds the cache netlists for cfg, characterizes the four
// components over the default grid, and fits the paper's model forms,
// refusing a fit below R2 0.95. SharedDesign memoizes it.
func DesignCache(tech *device.Technology, cfg cachecfg.Config) (*CacheDesign, error) {
	c, err := components.New(tech, cfg)
	if err != nil {
		return nil, err
	}
	m, err := model.Build(c, charlib.DefaultGrid(), 0.95)
	if err != nil {
		return nil, err
	}
	return &CacheDesign{Tech: tech, Cfg: cfg, Cache: c, Model: m}, nil
}

// Evaluate returns leakage power (W), access time (s) and dynamic energy
// (J) of an assignment, evaluated on the transistor-level netlists.
func (d *CacheDesign) Evaluate(a components.Assignment) (leakW, delayS, energyJ float64) {
	return d.Cache.Leakage(a).Total(), d.Cache.AccessTime(a), d.Cache.DynamicEnergy(a)
}

// The shared substrate behind SharedDesign/SharedKnobGrid: design-space
// sweeps evaluate the same few cache organizations at thousands to
// millions of (config, budget) points, and characterize-and-fit is by far
// the most expensive invariant (~40 ms per design on a 2-vCPU host,
// nearly all of it in the model fits; BenchmarkDesignColdStart). One
// technology instance anchors the memo so every design shares identical
// calibration.
var (
	sharedTech     = sync.OnceValue(device.Default65nm)
	designMemo     sweep.Memo[cachecfg.Config, *CacheDesign]
	sharedKnobGrid = sync.OnceValue(func() []device.OperatingPoint {
		g := charlib.OptimizationGrid()
		return opt.PairsFromGrid(g.Vths, g.ToxAs)
	})
)

// SharedTechnology returns the process-wide default technology instance —
// the one SharedDesign characterizes against. Treat it as read-only.
func SharedTechnology() *device.Technology { return sharedTech() }

// SharedDesign returns the process-wide memoized cache design for cfg
// under the default technology, building (netlists + characterization +
// model fits — the expensive part of a design point) on first use with
// singleflight semantics. Design construction is deterministic, and model
// evaluation is pure, so sharing one design across concurrent
// optimizations preserves the byte-identical-output invariant. Treat the
// returned design as read-only. Its fit gate is DesignCache's; exp
// applies its own on top (model.CacheModel.CheckR2). The build registers
// the model's knob search over SharedKnobGrid (opt.Prepare), so every
// search of the design on that grid answers from one search, built on
// its first query.
func SharedDesign(cfg cachecfg.Config) (*CacheDesign, error) {
	return designMemo.Do(cfg, func() (*CacheDesign, error) {
		d, err := DesignCache(sharedTech(), cfg)
		if err != nil {
			return nil, err
		}
		opt.Prepare(d.Model, SharedKnobGrid())
		return d, nil
	})
}

// SharedKnobGrid returns the paper's fine optimization grid (every
// OptimizationGrid (Vth, Tox) pair), computed once per process. The knob
// searches only read it; treat the returned slice as read-only.
func SharedKnobGrid() []device.OperatingPoint { return sharedKnobGrid() }

// OptimizeLeakageCtx minimizes the cache's total leakage under a delay
// budget (seconds) with the chosen assignment scheme, searching the
// paper's fine knob grid against the fitted model.
func (d *CacheDesign) OptimizeLeakageCtx(ctx context.Context, scheme opt.Scheme, delayBudget float64) (opt.Result, error) {
	return opt.OptimizeCtx(ctx, scheme, d.Model, SharedKnobGrid(), delayBudget)
}

// DelayRange returns the achievable [fastest, slowest] access times over
// uniform assignments — the span of useful delay budgets.
func (d *CacheDesign) DelayRange() (lo, hi float64) {
	return opt.FeasibleDelayRange(d.Model, SharedKnobGrid())
}

// TradeoffCurveCtx sweeps n delay budgets across the feasible range and
// returns the optimized leakage at each — the scheme's leakage/delay
// frontier.
func (d *CacheDesign) TradeoffCurveCtx(ctx context.Context, scheme opt.Scheme, n int) ([]opt.Result, error) {
	lo, hi := d.DelayRange()
	return opt.FrontierCtx(ctx, scheme, d.Model, SharedKnobGrid(), units.Linspace(lo, hi, n))
}

// Average names the equal-weight mix of the trace suites, as in Section 5.
const Average = "average"

// Workload selects a design point's miss rates: a trace suite
// (trace.Suite) or Average, at a seed, a trace length and a fidelity.
type Workload struct {
	Name     string
	Seed     int64
	Accesses int
	// Fidelity is profile.FidelityAnalytical for the stack-distance
	// profiles, and anything else for the trace-driven simulator.
	Fidelity string
}

// Validate reports whether Name is a suite or Average. It allocates
// nothing, so per-point config checks can ask it.
func (w Workload) Validate() error {
	if _, ok := trace.Suite(w.Name, w.Seed); !ok && w.Name != Average {
		return fmt.Errorf("unknown workload %q", w.Name)
	}
	return nil
}

// MissMatrices returns the miss matrix of each suite the workload names,
// over every (L1, L2) size pair given: simulated at trace fidelity, read
// from the process-wide stack-distance profiles at analytical fidelity.
// Cancelling ctx aborts the build with ctx's error.
func (w Workload) MissMatrices(ctx context.Context, l1Sizes, l2Sizes []int) ([]*sim.MissMatrix, error) {
	suites, err := w.suites()
	if err != nil {
		return nil, err
	}
	build := sim.BuildSuiteMatricesCtx
	if w.Fidelity == profile.FidelityAnalytical {
		build = profile.BuildSuiteMatricesCtx
	}
	return build(ctx, suites, l1Sizes, l2Sizes, w.Accesses)
}

// suites returns the trace suites the workload averages over, in
// trace.Suites order.
func (w Workload) suites() ([]trace.Params, error) {
	if p, ok := trace.Suite(w.Name, w.Seed); ok {
		return []trace.Params{p}, nil
	}
	if w.Name == Average {
		return trace.Suites(w.Seed), nil
	}
	return nil, w.Validate()
}

// TwoLevel assembles the optimizer view of one (L1, L2) pair: both
// levels' shared designs (SharedDesign), the pair's local miss rates from
// mm, and main memory. It refuses a pair mm does not hold. The view is a
// value, so a caller that keeps it local allocates nothing for it.
func TwoLevel(l1Size, l2Size int, mm *sim.MissMatrix, memSpec mem.Spec) (opt.TwoLevel, error) {
	m1, ok1 := mm.L1Local[l1Size]
	m2, ok2 := mm.L2Local[l1Size][l2Size]
	if !ok1 || !ok2 {
		return opt.TwoLevel{}, fmt.Errorf("core: %s miss matrix holds no L1 %d B / L2 %d B pair", mm.Workload, l1Size, l2Size)
	}
	return twoLevel(l1Size, l2Size, m1, m2, memSpec)
}

// twoLevel is TwoLevel once the pair's local miss rates are known.
func twoLevel(l1Size, l2Size int, m1, m2 float64, memSpec mem.Spec) (opt.TwoLevel, error) {
	l1, err := SharedDesign(cachecfg.L1(l1Size))
	if err != nil {
		return opt.TwoLevel{}, err
	}
	l2, err := SharedDesign(cachecfg.L2(l2Size))
	if err != nil {
		return opt.TwoLevel{}, err
	}
	tl := opt.TwoLevel{L1: l1.Model, L2: l2.Model, M1: m1, M2: m2, Mem: memSpec}
	if err := tl.Validate(); err != nil {
		return opt.TwoLevel{}, err
	}
	return tl, nil
}

// Point assembles one design point, the setting of the paper's Section 5:
// the workload's local miss rates at exactly these sizes, averaged with
// equal weight over its suites, then the view TwoLevel builds. A trace
// workload simulates its suites, in parallel, on every call. An
// analytical one reads each suite's process-wide profile
// (profile.ProfileCtx) on the caller's goroutine, with the operations
// sim.Average performs, so its miss rates are the matrix path's bit for
// bit.
func Point(ctx context.Context, w Workload, l1Size, l2Size int, memSpec mem.Spec) (opt.TwoLevel, error) {
	if w.Fidelity != profile.FidelityAnalytical {
		ms, err := w.MissMatrices(ctx, []int{l1Size}, []int{l2Size})
		if err != nil {
			return opt.TwoLevel{}, err
		}
		avg, err := sim.Average(ms)
		if err != nil {
			return opt.TwoLevel{}, err
		}
		return TwoLevel(l1Size, l2Size, avg, memSpec)
	}
	suites, err := w.suites()
	if err != nil {
		return opt.TwoLevel{}, err
	}
	if err := ctx.Err(); err != nil {
		return opt.TwoLevel{}, err
	}
	wt := 1 / float64(len(suites))
	var m1, m2 float64
	for _, p := range suites {
		pr, err := profile.ProfileCtx(ctx, p, w.Accesses)
		if err != nil {
			return opt.TwoLevel{}, fmt.Errorf("core: workload %s: %w", p.Name, err)
		}
		m1 += wt * pr.L1MissRatio(l1Size)
		m2 += wt * pr.L2LocalMissRatio(l1Size, l2Size)
	}
	return twoLevel(l1Size, l2Size, m1, m2, memSpec)
}
