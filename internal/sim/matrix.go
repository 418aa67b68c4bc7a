package sim

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cachecfg"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// ctxCheckStride is how many simulated accesses an L1 pass runs between
// context checks: frequent enough that cancellation lands mid-pass (well
// under one pass of latency), rare enough to stay off the profile.
const ctxCheckStride = 1 << 16

// MissMatrix holds the architectural statistics the two-level optimization
// consumes: local miss rates for every (L1 size, L2 size) combination of one
// workload.
type MissMatrix struct {
	Workload string
	L1Sizes  []int
	L2Sizes  []int
	Accesses int

	// L1Local[l1] is the L1 local miss rate.
	L1Local map[int]float64
	// L2Local[l1][l2] is the L2 local miss rate given that L1.
	L2Local map[int]map[int]float64
	// WritebackPerAccess[l1] is the L1 dirty-writeback rate per access.
	WritebackPerAccess map[int]float64
}

// missStreamEntry is one reference forwarded from L1 to L2.
type missStreamEntry struct {
	addr  uint64
	write bool
}

// l1PassResult is the outcome of simulating one L1 size: its local stats
// plus the L2 rates obtained by replaying its miss stream.
type l1PassResult struct {
	l1Local float64
	wbRate  float64
	l2Local map[int]float64
}

// BuildMissMatrixCtx simulates the workload over every L1/L2 size
// combination. The L1 miss stream for a given L1 size does not depend on
// the L2, so each L1 pass is run once and its miss stream replayed into
// every candidate L2.
//
// The L1 passes are independent and run in parallel; each worker gets its
// own trace generator seeded from the same Params, so every shard sees the
// identical reference stream and the matrix is byte-for-byte the one a
// sequential run produces. Cancelling ctx aborts mid-pass (passes check
// the context every few tens of thousands of accesses) and returns ctx's
// error.
func BuildMissMatrixCtx(ctx context.Context, p trace.Params, l1Sizes, l2Sizes []int, n int) (*MissMatrix, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sim: need a positive access count, got %d", n)
	}
	if len(l1Sizes) == 0 || len(l2Sizes) == 0 {
		return nil, fmt.Errorf("sim: empty size lists")
	}
	if _, err := trace.New(p); err != nil { // validate params before fan-out
		return nil, err
	}
	m := &MissMatrix{
		Workload:           p.Name,
		L1Sizes:            append([]int(nil), l1Sizes...),
		L2Sizes:            append([]int(nil), l2Sizes...),
		Accesses:           n,
		L1Local:            make(map[int]float64),
		L2Local:            make(map[int]map[int]float64),
		WritebackPerAccess: make(map[int]float64),
	}
	sort.Ints(m.L1Sizes)
	sort.Ints(m.L2Sizes)

	passes, err := sweep.MapCtx(ctx, len(m.L1Sizes), 0, func(ctx context.Context, i int) (l1PassResult, error) {
		return l1Pass(ctx, p, m.L1Sizes[i], m.L2Sizes, n)
	})
	if err != nil {
		return nil, err
	}
	for i, l1Size := range m.L1Sizes {
		m.L1Local[l1Size] = passes[i].l1Local
		m.WritebackPerAccess[l1Size] = passes[i].wbRate
		m.L2Local[l1Size] = passes[i].l2Local
	}
	return m, nil
}

// l1Pass runs one L1 size: fresh per-shard trace generator, one L1
// simulation, and a replay of the miss stream into every candidate L2. The
// context is checked every ctxCheckStride accesses so cancellation does
// not have to wait out a million-access pass.
func l1Pass(ctx context.Context, p trace.Params, l1Size int, l2Sizes []int, n int) (l1PassResult, error) {
	gen, err := trace.New(p)
	if err != nil {
		return l1PassResult{}, err
	}
	l1, err := New(cachecfg.L1(l1Size), LRU, WriteBack)
	if err != nil {
		return l1PassResult{}, err
	}
	var stream []missStreamEntry
	for i := 0; i < n; i++ {
		if i%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return l1PassResult{}, err
			}
		}
		a := gen.Next()
		r := l1.Access(a.Addr, a.Write)
		if r.Writeback {
			stream = append(stream, missStreamEntry{addr: r.WritebackAddr, write: true})
		}
		if !r.Hit {
			stream = append(stream, missStreamEntry{addr: a.Addr, write: a.Write})
		}
	}
	out := l1PassResult{
		l1Local: l1.Stats.MissRate(),
		wbRate:  float64(l1.Stats.Writebacks) / float64(l1.Stats.Accesses),
		l2Local: make(map[int]float64, len(l2Sizes)),
	}
	for _, l2Size := range l2Sizes {
		if err := ctx.Err(); err != nil {
			return l1PassResult{}, err
		}
		l2, err := New(cachecfg.L2(l2Size), LRU, WriteBack)
		if err != nil {
			return l1PassResult{}, err
		}
		for _, e := range stream {
			l2.Access(e.addr, e.write)
		}
		out.l2Local[l2Size] = l2.Stats.MissRate()
	}
	return out, nil
}

// BuildSuiteMatricesCtx builds matrices for several workloads, one worker
// per workload (each workload's generator is seeded independently).
func BuildSuiteMatricesCtx(ctx context.Context, suites []trace.Params, l1Sizes, l2Sizes []int, n int) ([]*MissMatrix, error) {
	return sweep.MapCtx(ctx, len(suites), 0, func(ctx context.Context, i int) (*MissMatrix, error) {
		m, err := BuildMissMatrixCtx(ctx, suites[i], l1Sizes, l2Sizes, n)
		if err != nil {
			return nil, fmt.Errorf("sim: workload %s: %w", suites[i].Name, err)
		}
		return m, nil
	})
}

// Average combines matrices with equal weight — the paper reports "results
// from various benchmark suites ... are collected" and evaluates aggregate
// behaviour.
func Average(ms []*MissMatrix) (*MissMatrix, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("sim: nothing to average")
	}
	base := ms[0]
	out := &MissMatrix{
		Workload:           "average",
		L1Sizes:            append([]int(nil), base.L1Sizes...),
		L2Sizes:            append([]int(nil), base.L2Sizes...),
		Accesses:           base.Accesses,
		L1Local:            make(map[int]float64),
		L2Local:            make(map[int]map[int]float64),
		WritebackPerAccess: make(map[int]float64),
	}
	for _, m := range ms {
		if len(m.L1Sizes) != len(base.L1Sizes) || len(m.L2Sizes) != len(base.L2Sizes) {
			return nil, fmt.Errorf("sim: mismatched matrices (%s vs %s)", m.Workload, base.Workload)
		}
	}
	w := 1 / float64(len(ms))
	for _, l1 := range out.L1Sizes {
		out.L2Local[l1] = make(map[int]float64)
		for _, m := range ms {
			out.L1Local[l1] += w * m.L1Local[l1]
			out.WritebackPerAccess[l1] += w * m.WritebackPerAccess[l1]
			for _, l2 := range out.L2Sizes {
				out.L2Local[l1][l2] += w * m.L2Local[l1][l2]
			}
		}
	}
	return out, nil
}
