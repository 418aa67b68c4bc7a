// Package repro benchmarks regenerate every table and figure of the paper's
// evaluation (see the exp.Experiments registry in internal/exp/all.go for
// the experiment index) and measure the substrates they are built from. Run
// with:
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cachecfg"
	"repro/internal/charlib"
	"repro/internal/components"
	"repro/internal/cpu"
	"repro/internal/device"
	"repro/internal/exp"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/work"
)

// Shared fixtures, built once outside the timed regions.
var (
	fixOnce sync.Once
	fixEnv  *exp.Env
	fixL1   *model.CacheModel
	fixL2   *model.CacheModel
	fixSys  *opt.TwoLevel
	fixOps  []device.OperatingPoint
)

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		fixEnv = exp.NewQuickEnv()
		tech := device.Default65nm()
		c1, err := components.New(tech, cachecfg.L1(16*cachecfg.KB))
		if err != nil {
			b.Fatal(err)
		}
		c2, err := components.New(tech, cachecfg.L2(512*cachecfg.KB))
		if err != nil {
			b.Fatal(err)
		}
		fixL1, err = model.Build(c1, charlib.DefaultGrid(), 0)
		if err != nil {
			b.Fatal(err)
		}
		fixL2, err = model.Build(c2, charlib.DefaultGrid(), 0)
		if err != nil {
			b.Fatal(err)
		}
		fixSys = &opt.TwoLevel{
			L1: fixL1, L2: fixL2, M1: 0.07, M2: 0.17, Mem: mem.DefaultDDR(),
		}
		g := charlib.OptimizationGrid()
		fixOps = opt.PairsFromGrid(g.Vths, g.ToxAs)
	})
}

// --- One benchmark per paper artefact --------------------------------------

// BenchmarkFig1Slices regenerates Figure 1 (16KB leakage vs access time
// along the four knob slices).
func BenchmarkFig1Slices(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		if _, err := fixEnv.Fig1(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchemeComparison regenerates the Section 4 scheme study
// (tab-schemes): Schemes I, II, III across delay budgets.
func BenchmarkSchemeComparison(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		if _, err := fixEnv.SchemeComparison(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKnobSensitivity regenerates the Section 4 knob study (tab-knob).
func BenchmarkKnobSensitivity(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		if _, err := fixEnv.KnobSensitivity(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkL2SingleKnob regenerates the Section 5 single-pair L2 size sweep
// (tab-l2-single).
func BenchmarkL2SingleKnob(b *testing.B) {
	fixtures(b)
	warmMissMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fixEnv.L2SizeSweep(context.Background(), false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkL2SplitKnob regenerates the Section 5 split-pair L2 size sweep
// (tab-l2-split).
func BenchmarkL2SplitKnob(b *testing.B) {
	fixtures(b)
	warmMissMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fixEnv.L2SizeSweep(context.Background(), true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkL1Sweep regenerates the Section 5 L1 size sweep (tab-l1).
func BenchmarkL1Sweep(b *testing.B) {
	fixtures(b)
	warmMissMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fixEnv.L1Sweep(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Tuples regenerates Figure 2 (total energy vs AMAT for the
// five tuple budgets).
func BenchmarkFig2Tuples(b *testing.B) {
	fixtures(b)
	warmMissMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fixEnv.Fig2(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVthOnlyBaseline regenerates the baseline comparison
// (tab-baseline): joint knobs vs Vth-only [7] vs Tox-only.
func BenchmarkVthOnlyBaseline(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		if _, err := fixEnv.BaselineComparison(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterization measures the HSPICE-substitute sweep + fits for
// one cache (tab-fit).
func BenchmarkCharacterization(b *testing.B) {
	tech := device.Default65nm()
	cache, err := components.New(tech, cachecfg.L1(16*cachecfg.KB))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Build(cache, charlib.DefaultGrid(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheSim measures the architectural simulator building one
// workload's miss matrix (tab-missrates).
func BenchmarkCacheSim(b *testing.B) {
	p := trace.SPEC2000(1)
	l1s := []int{16 * cachecfg.KB}
	l2s := []int{512 * cachecfg.KB}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.BuildMissMatrixCtx(b.Context(), p, l1s, l2s, 100_000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(200_000*b.N)/b.Elapsed().Seconds(), "accesses/s")
}

func warmMissMatrix(b *testing.B) {
	b.Helper()
	if _, err := fixEnv.MissMatrixCtx(b.Context()); err != nil {
		b.Fatal(err)
	}
}

// --- Sweep engine benchmarks -------------------------------------------------

// gomaxprocsLevels returns the 1/4/NumCPU ladder (deduplicated) at which the
// parallel-vs-sequential benchmarks run.
func gomaxprocsLevels() []int {
	levels := []int{1}
	if runtime.NumCPU() >= 4 || runtime.NumCPU() == 1 {
		// Include 4 even on small machines: goroutine fan-out is still
		// exercised, the OS just timeslices it.
		levels = append(levels, 4)
	}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		levels = append(levels, n)
	}
	return levels
}

// benchAll measures one RunExperimentsCtx pass over the registry: every
// artifact of the paper regenerated from a fresh Env (workload simulation
// and all optimizations), at a reduced trace length so a single iteration
// stays in benchmark range. Designs come from core's process-wide memo,
// so only the first iteration characterizes and fits them.
func benchAll(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		env := exp.NewQuickEnv()
		env.Accesses = 100_000
		env.Workers = workers
		arts, err := env.RunExperimentsCtx(b.Context(), exp.Experiments())
		if err != nil {
			b.Fatal(err)
		}
		if len(arts) != len(exp.Experiments()) {
			b.Fatalf("got %d artifacts", len(arts))
		}
	}
}

// BenchmarkAllSequential is the single-goroutine baseline for the full
// evaluation sweep.
func BenchmarkAllSequential(b *testing.B) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	benchAll(b, 1)
}

// BenchmarkAllParallel runs the identical sweep through the worker pool at
// GOMAXPROCS 1, 4 and NumCPU. Output is byte-identical to the sequential
// run (see exp.TestAllParallelByteIdentical); only wall-clock changes.
func BenchmarkAllParallel(b *testing.B) {
	for _, w := range gomaxprocsLevels() {
		b.Run(fmt.Sprintf("gomaxprocs=%d", w), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(w)
			defer runtime.GOMAXPROCS(prev)
			benchAll(b, 0)
		})
	}
}

// BenchmarkSweepThroughput measures the raw engine on a CPU-bound kernel
// (no shared state), isolating pool overhead and scaling from the physics.
func BenchmarkSweepThroughput(b *testing.B) {
	work := func(_ context.Context, i int) (float64, error) {
		s := 0.0
		for j := 0; j < 20_000; j++ {
			s += float64(i*j) * 1e-9
		}
		return s, nil
	}
	for _, w := range gomaxprocsLevels() {
		b.Run(fmt.Sprintf("gomaxprocs=%d", w), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(w)
			defer runtime.GOMAXPROCS(prev)
			for i := 0; i < b.N; i++ {
				if _, err := sweep.MapCtx(b.Context(), 1024, 0, work); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMissMatrixParallel measures the architectural simulator building
// the full canonical suite matrices — the dominant cost of a cold run —
// through the per-shard-seeded parallel path.
func BenchmarkMissMatrixParallel(b *testing.B) {
	for _, w := range gomaxprocsLevels() {
		b.Run(fmt.Sprintf("gomaxprocs=%d", w), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(w)
			defer runtime.GOMAXPROCS(prev)
			for i := 0; i < b.N; i++ {
				ms, err := sim.BuildSuiteMatricesCtx(b.Context(), trace.Suites(1), cachecfg.L1Sizes(), cachecfg.L2Sizes(), 50_000)
				if err != nil {
					b.Fatal(err)
				}
				if len(ms) != 3 {
					b.Fatalf("got %d matrices", len(ms))
				}
			}
		})
	}
}

// BenchmarkBatchScenarios measures the multi-scenario batch runner end to
// end on the checked-in example batch: work.Collect over the batch, the
// path `scenario`'s buffered mode runs.
func BenchmarkBatchScenarios(b *testing.B) {
	f, err := os.Open("examples/scenarios.json")
	if err != nil {
		b.Fatal(err)
	}
	batch, err := scenario.LoadBatch(f)
	f.Close()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := work.Collect(b.Context(), batch, work.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ---------------------------------------------

// BenchmarkDeviceLeakage measures one transistor-level leakage evaluation of
// a full 16KB cache (the netlist walk the optimizers avoid by fitting).
func BenchmarkDeviceLeakage(b *testing.B) {
	tech := device.Default65nm()
	cache, err := components.New(tech, cachecfg.L1(16*cachecfg.KB))
	if err != nil {
		b.Fatal(err)
	}
	a := components.Uniform(device.OP(0.3, 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cache.Leakage(a)
	}
}

// BenchmarkModelEval measures one fitted-model evaluation (the optimizer's
// inner loop).
func BenchmarkModelEval(b *testing.B) {
	fixtures(b)
	a := components.Uniform(device.OP(0.3, 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fixL1.LeakageW(a) + fixL1.AccessTimeS(a)
	}
}

// BenchmarkSchemeIDP measures the Scheme I multiple-choice-knapsack solve on
// the full optimization grid.
func BenchmarkSchemeIDP(b *testing.B) {
	fixtures(b)
	lo, hi := opt.FeasibleDelayRange(fixL1, fixOps)
	budget := lo + 0.5*(hi-lo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := opt.OptimizeCtx(b.Context(), opt.SchemeI, fixL1, fixOps, budget)
		if err != nil || !r.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkSchemeIIScan measures the Scheme II Pareto scan.
func BenchmarkSchemeIIScan(b *testing.B) {
	fixtures(b)
	lo, hi := opt.FeasibleDelayRange(fixL1, fixOps)
	budget := lo + 0.5*(hi-lo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := opt.OptimizeCtx(b.Context(), opt.SchemeII, fixL1, fixOps, budget)
		if err != nil || !r.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkTupleOptimize measures one (2 Tox, 2 Vth) tuple optimization.
func BenchmarkTupleOptimize(b *testing.B) {
	fixtures(b)
	vths, toxs := opt.CoarseMenu()
	var mid opt.SystemAssignment
	for i := range mid {
		mid[i] = device.OP(0.35, 12)
	}
	target := fixSys.AMAT(mid.L1(), mid.L2())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := fixSys.OptimizeTuplesCtx(b.Context(), opt.TupleBudget{NTox: 2, NVth: 2}, vths, toxs, target)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkTraceGen measures synthetic trace generation throughput.
func BenchmarkTraceGen(b *testing.B) {
	g, err := trace.New(trace.SPEC2000(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}

// BenchmarkSimAccess measures raw simulator throughput on a pre-collected
// trace.
func BenchmarkSimAccess(b *testing.B) {
	g, err := trace.New(trace.SPEC2000(1))
	if err != nil {
		b.Fatal(err)
	}
	accs := trace.Collect(g, 1<<16)
	c := sim.MustNew(cachecfg.L1(16*cachecfg.KB), sim.LRU, sim.WriteBack)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := accs[i&(1<<16-1)]
		c.Access(a.Addr, a.Write)
	}
}

// --- Extension/ablation benchmarks -------------------------------------------

// BenchmarkExtensions regenerates the full extension/ablation bundle
// (model-vs-direct, delay composition, drowsy, temperature, node
// comparison, replacement, area, CPU energy).
func BenchmarkExtensions(b *testing.B) {
	fixtures(b)
	warmMissMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fixEnv.RunExperimentsCtx(b.Context(), exp.Extensions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDrowsyLeakage measures the drowsy-split leakage evaluation.
func BenchmarkDrowsyLeakage(b *testing.B) {
	tech := device.Default65nm()
	cache, err := components.New(tech, cachecfg.L1(16*cachecfg.KB))
	if err != nil {
		b.Fatal(err)
	}
	a := components.Uniform(device.OP(0.3, 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.LeakageWithDrowsy(a, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCPURun measures the program-level metric computation.
func BenchmarkCPURun(b *testing.B) {
	fixtures(b)
	core := cpu.Default65nmCore()
	sys := fixSys.System(
		components.Uniform(device.OP(0.25, 11)),
		components.Uniform(device.OP(0.45, 13)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(sys); err != nil {
			b.Fatal(err)
		}
	}
}
