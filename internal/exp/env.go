// Package exp is the experiment harness: it regenerates every figure and
// table of the paper's evaluation from this repository's substrates, and
// renders them as ASCII tables, CSV, and coarse terminal plots.
//
// The per-experiment index is the Experiments registry (the paper's
// evaluation) and the Extensions list (studies beyond it) in all.go;
// `figures -list -ext` prints every ID in order. Experiments fan out
// across the sweep engine (internal/sweep). Cache designs and the knob
// grid come from core's process-wide memo, shared with scenario points;
// each Env memoizes its miss matrices. A parallel run builds each
// substrate exactly once and emits output byte-identical to a sequential
// run.
package exp

import (
	"context"
	"fmt"

	"repro/internal/cachecfg"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Env carries the scale of an experiment run (the workload seed, the
// simulation length, the fit gate and the miss-rate fidelity) and its
// lazily built miss-rate matrices. It holds no cache design: every Env
// reads designs from core's process-wide memo and applies its own gate.
type Env struct {
	// Accesses is the trace length per (workload, L1 size) simulation.
	Accesses int
	// Seed drives all synthetic workloads.
	Seed int64
	// MinR2 gates the leakage and delay fits of every design an
	// experiment reads. core.SharedDesign refuses fits below R2 0.95
	// itself, so the effective gate is max(0.95, MinR2); every fit of an
	// admitted size (1 KB to 64 MB) measures R2 >= 0.991, above both.
	MinR2 float64
	// Fidelity selects the miss-matrix builder: "" or
	// profile.FidelityTrace runs the trace-driven simulator (the golden
	// reference); profile.FidelityAnalytical uses the stack-distance
	// fast path, trading profile.Tolerance of miss-rate accuracy for an
	// order-of-magnitude cheaper build. Like Accesses and Seed it is
	// part of the environment's identity: the batch hash covers it and
	// every distributed unit carries it in its Scale. Set it before the
	// first matrix is built; the memoized matrices do not rebuild on
	// later changes.
	Fidelity string
	// Workers bounds the experiment fan-out of RunExperimentsCtx
	// and the size and budget-fraction sweeps inside an experiment: 0
	// uses GOMAXPROCS, 1 runs them one at a time. A single knob search
	// always runs on one goroutine; the opt budget sweeps (FrontierCtx,
	// OptimizeL2FrontierCtx, TupleCurveCtx) and the miss-matrix suite
	// builders size themselves from GOMAXPROCS — cap that instead to
	// bound total parallelism. Output is identical at any setting.
	Workers int
	// Progress, when non-nil, observes top-level experiment completion:
	// it is called once per finished experiment with (done, total). Calls
	// may arrive concurrently from worker goroutines during
	// RunExperimentsCtx.
	Progress sweep.Progress

	matrices sweep.Memo[struct{}, []*sim.MissMatrix]
	average  sweep.Memo[struct{}, *sim.MissMatrix]
}

// NewEnv returns an environment with production-scale defaults.
func NewEnv() *Env {
	return &Env{
		Accesses: 1_000_000,
		Seed:     1,
		MinR2:    0.97,
	}
}

// NewQuickEnv returns an environment sized for tests: shorter simulations,
// same physics.
func NewQuickEnv() *Env {
	e := NewEnv()
	e.Accesses = 400_000
	return e
}

// design returns cfg's shared, read-only design from core's memo, refused
// when a leakage or delay fit falls below the Env's MinR2.
func (e *Env) design(cfg cachecfg.Config) (*core.CacheDesign, error) {
	d, err := core.SharedDesign(cfg)
	if err == nil {
		err = d.Model.CheckR2(e.MinR2)
	}
	if err != nil {
		return nil, fmt.Errorf("exp: model for %v: %w", cfg, err)
	}
	return d, nil
}

// SuiteMatricesCtx returns the per-workload miss matrices over the
// canonical L1/L2 design spaces, simulating on first use. A cancelled
// build aborts mid-simulation and is not cached, so a later uncancelled
// caller rebuilds.
func (e *Env) SuiteMatricesCtx(ctx context.Context) ([]*sim.MissMatrix, error) {
	return e.matrices.Do(struct{}{}, func() ([]*sim.MissMatrix, error) {
		build := sim.BuildSuiteMatricesCtx
		if e.Fidelity == profile.FidelityAnalytical {
			build = profile.BuildSuiteMatricesCtx
		}
		return build(ctx, trace.Suites(e.Seed), cachecfg.L1Sizes(), cachecfg.L2Sizes(), e.Accesses)
	})
}

// MissMatrixCtx returns the equal-weight average of the suite matrices —
// the aggregate statistics the paper's Section 5 experiments consume.
func (e *Env) MissMatrixCtx(ctx context.Context) (*sim.MissMatrix, error) {
	return e.average.Do(struct{}{}, func() (*sim.MissMatrix, error) {
		ms, err := e.SuiteMatricesCtx(ctx)
		if err != nil {
			return nil, err
		}
		return sim.Average(ms)
	})
}

// workers resolves the Env's fan-out setting.
func (e *Env) workers() int { return sweep.Workers(e.Workers) }

// kbLabel formats a size in bytes as "16KB" / "1MB".
func kbLabel(bytes int) string {
	switch {
	case bytes >= cachecfg.MB && bytes%cachecfg.MB == 0:
		return fmt.Sprintf("%dMB", bytes/cachecfg.MB)
	case bytes >= cachecfg.KB:
		return fmt.Sprintf("%dKB", bytes/cachecfg.KB)
	}
	return fmt.Sprintf("%dB", bytes)
}
