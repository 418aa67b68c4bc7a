package profile

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// The profiled granularities are the block sizes cachecfg.L1/L2 fix for
// every capacity in the design space; the profiler bakes them in so one
// pass serves the whole (L1, L2) grid.
const (
	l1BlockBytes = 32
	l2BlockBytes = 64
)

// MissMatrix evaluates the profile at every (L1, L2) size combination
// and returns the result in the sim.MissMatrix shape, so the exp/opt/
// scenario layers consume it unchanged. Each cell is an O(1) CDF lookup.
func (pr *Profile) MissMatrix(l1Sizes, l2Sizes []int) (*sim.MissMatrix, error) {
	if len(l1Sizes) == 0 || len(l2Sizes) == 0 {
		return nil, fmt.Errorf("profile: empty size lists")
	}
	m := &sim.MissMatrix{
		Workload:           pr.Params.Name,
		L1Sizes:            append([]int(nil), l1Sizes...),
		L2Sizes:            append([]int(nil), l2Sizes...),
		Accesses:           pr.Accesses,
		L1Local:            make(map[int]float64),
		L2Local:            make(map[int]map[int]float64),
		WritebackPerAccess: make(map[int]float64),
	}
	sort.Ints(m.L1Sizes)
	sort.Ints(m.L2Sizes)
	for _, l1 := range m.L1Sizes {
		m.L1Local[l1] = pr.L1MissRatio(l1)
		m.WritebackPerAccess[l1] = pr.L1WritebacksPerAccess(l1)
		row := make(map[int]float64, len(m.L2Sizes))
		for _, l2 := range m.L2Sizes {
			row[l2] = pr.L2LocalMissRatio(l1, l2)
		}
		m.L2Local[l1] = row
	}
	return m, nil
}

// memoKey identifies one profile: the workload parameters and the stream
// length. trace.Params is a comparable value type, so the key is too.
type memoKey struct {
	p trace.Params
	n int
}

// Memo caches profiles per (workload, trace length) with singleflight
// semantics: concurrent design points over the same workload share one
// profiling pass instead of racing to repeat it. The zero value is ready
// to use.
type Memo struct {
	memo sweep.Memo[memoKey, *Profile]
}

// NewMemo returns an empty profile cache (for callers — benchmarks,
// tests — that must not share the process-wide one).
func NewMemo() *Memo { return &Memo{} }

// ProfileCtx returns the memoized profile for (p, n), building it on
// first use. Builds aborted by ctx do not poison the cache.
func (m *Memo) ProfileCtx(ctx context.Context, p trace.Params, n int) (*Profile, error) {
	return m.memo.Do(memoKey{p: p, n: n}, func() (*Profile, error) {
		return BuildCtx(ctx, p, n)
	})
}

// BuildMissMatrixCtx profiles through the memo and evaluates the grid.
// After the first call for a workload, every further (L1, L2) design
// point of that workload — any size lists, any subset — costs O(grid
// cells), not O(accesses).
func (m *Memo) BuildMissMatrixCtx(ctx context.Context, p trace.Params, l1Sizes, l2Sizes []int, n int) (*sim.MissMatrix, error) {
	pr, err := m.ProfileCtx(ctx, p, n)
	if err != nil {
		return nil, err
	}
	return pr.MissMatrix(l1Sizes, l2Sizes)
}

// shared is the process-wide profile cache behind the package-level
// builders — the analytical counterpart of the simulator's per-Env
// matrix memo, but keyed purely by (Params, n) so every scenario, grid
// point, and experiment in the process shares one pass per workload.
var shared = NewMemo()

// BuildMissMatrixCtx builds the workload's miss matrix analytically: one
// memoized profiling pass (shared process-wide per workload and stream
// length), then O(1) lookups per grid cell.
func BuildMissMatrixCtx(ctx context.Context, p trace.Params, l1Sizes, l2Sizes []int, n int) (*sim.MissMatrix, error) {
	return shared.BuildMissMatrixCtx(ctx, p, l1Sizes, l2Sizes, n)
}

// BuildSuiteMatricesCtx builds matrices for several workloads, one
// worker per workload, through the shared profile cache.
func BuildSuiteMatricesCtx(ctx context.Context, suites []trace.Params, l1Sizes, l2Sizes []int, n int) ([]*sim.MissMatrix, error) {
	return sweep.MapCtx(ctx, len(suites), 0, func(ctx context.Context, i int) (*sim.MissMatrix, error) {
		m, err := BuildMissMatrixCtx(ctx, suites[i], l1Sizes, l2Sizes, n)
		if err != nil {
			return nil, fmt.Errorf("profile: workload %s: %w", suites[i].Name, err)
		}
		return m, nil
	})
}
