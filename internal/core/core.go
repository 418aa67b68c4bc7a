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
//     miss rates from the trace-driven simulator; and
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
// the most expensive invariant (~100ms per design). One technology
// instance anchors the memo so every design shares identical calibration.
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
// applies its own on top (model.CacheModel.CheckR2).
func SharedDesign(cfg cachecfg.Config) (*CacheDesign, error) {
	return designMemo.Do(cfg, func() (*CacheDesign, error) {
		return DesignCache(sharedTech(), cfg)
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

// HierarchyDesign is a two-level cache system plus main memory under a
// workload mix — the setting of the paper's Section 5. L1 and L2 are the
// process-wide shared designs (SharedDesign): treat them as read-only.
type HierarchyDesign struct {
	L1  *CacheDesign
	L2  *CacheDesign
	Mem mem.Spec

	// M1 and M2 are the local miss rates of the configured sizes under the
	// simulated workloads.
	M1, M2 float64
}

// HierarchyOptions tunes DesignHierarchy's simulation and main memory.
type HierarchyOptions struct {
	// Accesses per workload for miss-rate simulation (default 1M).
	Accesses int
	// Seed for the synthetic workloads (default 1).
	Seed int64
	// Mem overrides the main-memory spec (default DDR).
	Mem *mem.Spec
}

// DesignHierarchy reads the L1 and L2 designs of the given capacities
// from SharedDesign and simulates the three workload suites to obtain
// their miss rates. Cancelling ctx aborts the simulation with ctx's error.
func DesignHierarchy(ctx context.Context, l1Size, l2Size int, o HierarchyOptions) (*HierarchyDesign, error) {
	if o.Accesses == 0 {
		o.Accesses = 1_000_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	m := mem.DefaultDDR()
	if o.Mem != nil {
		m = *o.Mem
	}

	l1, err := SharedDesign(cachecfg.L1(l1Size))
	if err != nil {
		return nil, fmt.Errorf("core: L1: %w", err)
	}
	l2, err := SharedDesign(cachecfg.L2(l2Size))
	if err != nil {
		return nil, fmt.Errorf("core: L2: %w", err)
	}

	ms, err := sim.BuildSuiteMatricesCtx(ctx, trace.Suites(o.Seed), []int{l1Size}, []int{l2Size}, o.Accesses)
	if err != nil {
		return nil, fmt.Errorf("core: miss rates: %w", err)
	}
	avg, err := sim.Average(ms)
	if err != nil {
		return nil, err
	}
	return &HierarchyDesign{
		L1:  l1,
		L2:  l2,
		Mem: m,
		M1:  avg.L1Local[l1Size],
		M2:  avg.L2Local[l1Size][l2Size],
	}, nil
}

// twoLevel assembles the optimizer view.
func (h *HierarchyDesign) twoLevel() *opt.TwoLevel {
	return &opt.TwoLevel{L1: h.L1.Model, L2: h.L2.Model, M1: h.M1, M2: h.M2, Mem: h.Mem}
}

// AMAT returns the average memory access time (s) under the assignments.
func (h *HierarchyDesign) AMAT(a1, a2 components.Assignment) float64 {
	return h.twoLevel().AMAT(a1, a2)
}

// OptimizeL2 minimizes combined leakage over L2 assignments under an AMAT
// budget with L1 pinned (the paper's first two-level experiment).
func (h *HierarchyDesign) OptimizeL2(ctx context.Context, scheme opt.Scheme, a1 components.Assignment, amatBudget float64) (opt.TwoLevelResult, error) {
	return h.twoLevel().OptimizeL2Ctx(ctx, scheme, a1, SharedKnobGrid(), amatBudget)
}

// MemorySystem returns the whole-system view used by the tuple-budget
// optimizer of Figure 2.
func (h *HierarchyDesign) MemorySystem() *opt.MemorySystem {
	return &opt.MemorySystem{TwoLevel: *h.twoLevel()}
}

// OptimizeTuples finds the best (#Tox, #Vth) value sets and assignment under
// an AMAT budget, minimizing total energy. Candidates default to the paper's
// coarse menus (opt.CoarseMenu) when nil.
func (h *HierarchyDesign) OptimizeTuples(ctx context.Context, budget opt.TupleBudget, vthCands, toxCands []float64, amatBudget float64) (opt.TupleResult, error) {
	vths, toxs := opt.CoarseMenu()
	if vthCands == nil {
		vthCands = vths
	}
	if toxCands == nil {
		toxCands = toxs
	}
	return h.MemorySystem().OptimizeTuplesCtx(ctx, budget, vthCands, toxCands, amatBudget)
}
