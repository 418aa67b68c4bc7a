package profile_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/cachecfg"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// toleranceAccesses is the stream length of the cross-fidelity gate —
// long enough that trace-driven statistics have settled, short enough
// that the simulated half of the comparison stays in test budget.
const toleranceAccesses = 200000

// fidelityPair is one workload built both ways over the full canonical
// size lists.
type fidelityPair struct {
	params     trace.Params
	ref        *sim.MissMatrix // trace-driven golden reference
	analytical *sim.MissMatrix
}

var (
	pairsOnce sync.Once
	pairsVal  []fidelityPair
	pairsErr  error
)

// buildPairs runs the expensive builds once and shares them between the
// tolerance and monotonicity tests. Every registered suite is covered:
// the paper's three plus the robustness extras.
func buildPairs(t *testing.T) []fidelityPair {
	t.Helper()
	pairsOnce.Do(func() {
		suites := append(trace.Suites(1), trace.ExtraSuites(1)...)
		l1s, l2s := cachecfg.L1Sizes(), cachecfg.L2Sizes()
		for _, p := range suites {
			ref, err := sim.BuildMissMatrixCtx(t.Context(), p, l1s, l2s, toleranceAccesses)
			if err != nil {
				pairsErr = fmt.Errorf("sim %s: %w", p.Name, err)
				return
			}
			got, err := profile.BuildMissMatrixCtx(t.Context(), p, l1s, l2s, toleranceAccesses)
			if err != nil {
				pairsErr = fmt.Errorf("profile %s: %w", p.Name, err)
				return
			}
			pairsVal = append(pairsVal, fidelityPair{params: p, ref: ref, analytical: got})
		}
	})
	if pairsErr != nil {
		t.Fatal(pairsErr)
	}
	return pairsVal
}

// TestAnalyticalWithinTolerance is the fidelity gate the package
// documents: for every registered suite and every cell of the canonical
// cachecfg size grid, the analytical L1-local, L2-local, and write-back
// rates agree with trace-driven simulation within profile.Tolerance.
func TestAnalyticalWithinTolerance(t *testing.T) {
	for _, pair := range buildPairs(t) {
		t.Run(pair.params.Name, func(t *testing.T) {
			ref, got := pair.ref, pair.analytical
			if got.Workload != ref.Workload || got.Accesses != ref.Accesses {
				t.Fatalf("matrix identity mismatch: analytical %s/%d vs sim %s/%d",
					got.Workload, got.Accesses, ref.Workload, ref.Accesses)
			}
			for _, l1 := range ref.L1Sizes {
				if d := math.Abs(got.L1Local[l1] - ref.L1Local[l1]); d > profile.Tolerance {
					t.Errorf("L1 local @ %s: analytical %.4f vs sim %.4f (|Δ|=%.4f > %.2f)",
						cachecfg.L1(l1), got.L1Local[l1], ref.L1Local[l1], d, profile.Tolerance)
				}
				if d := math.Abs(got.WritebackPerAccess[l1] - ref.WritebackPerAccess[l1]); d > profile.Tolerance {
					t.Errorf("writeback rate @ %s: analytical %.4f vs sim %.4f (|Δ|=%.4f > %.2f)",
						cachecfg.L1(l1), got.WritebackPerAccess[l1], ref.WritebackPerAccess[l1], d, profile.Tolerance)
				}
				for _, l2 := range ref.L2Sizes {
					if d := math.Abs(got.L2Local[l1][l2] - ref.L2Local[l1][l2]); d > profile.Tolerance {
						t.Errorf("L2 local @ %s,%s: analytical %.4f vs sim %.4f (|Δ|=%.4f > %.2f)",
							cachecfg.L1(l1), cachecfg.L2(l2), got.L2Local[l1][l2], ref.L2Local[l1][l2], d, profile.Tolerance)
					}
				}
			}
		})
	}
}

// TestMatricesMonotoneInCapacity checks the physical sanity property on
// both fidelities: growing a cache never increases its local miss rate.
// The analytical matrices are monotone by construction (CDFs are
// non-decreasing), so they get essentially zero slack; the
// set-associative simulator can show tiny non-monotonicities when the
// set count changes between sizes, so it gets a small statistical slack.
func TestMatricesMonotoneInCapacity(t *testing.T) {
	const (
		analyticalSlack = 1e-12
		simSlack        = 5e-3
	)
	for _, pair := range buildPairs(t) {
		for _, tc := range []struct {
			fidelity string
			m        *sim.MissMatrix
			slack    float64
		}{
			{profile.FidelityTrace, pair.ref, simSlack},
			{profile.FidelityAnalytical, pair.analytical, analyticalSlack},
		} {
			t.Run(pair.params.Name+"/"+tc.fidelity, func(t *testing.T) {
				for i := 1; i < len(tc.m.L1Sizes); i++ {
					small, big := tc.m.L1Sizes[i-1], tc.m.L1Sizes[i]
					if tc.m.L1Local[big] > tc.m.L1Local[small]+tc.slack {
						t.Errorf("L1 local rose with capacity: %.5f @ %d -> %.5f @ %d",
							tc.m.L1Local[small], small, tc.m.L1Local[big], big)
					}
				}
				for _, l1 := range tc.m.L1Sizes {
					for i := 1; i < len(tc.m.L2Sizes); i++ {
						small, big := tc.m.L2Sizes[i-1], tc.m.L2Sizes[i]
						if tc.m.L2Local[l1][big] > tc.m.L2Local[l1][small]+tc.slack {
							t.Errorf("L2 local rose with capacity @ L1=%d: %.5f @ %d -> %.5f @ %d",
								l1, tc.m.L2Local[l1][small], small, tc.m.L2Local[l1][big], big)
						}
					}
				}
			})
		}
	}
}

// TestAnalyticalDeterministic pins the byte-level invariant the grid
// equivalence suite relies on: independent profile caches produce
// identical matrices, bit for bit.
func TestAnalyticalDeterministic(t *testing.T) {
	p := trace.TPCC(3)
	l1s, l2s := cachecfg.L1Sizes(), cachecfg.L2Sizes()
	a, err := profile.NewMemo().BuildMissMatrixCtx(t.Context(), p, l1s, l2s, 50000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := profile.NewMemo().BuildMissMatrixCtx(t.Context(), p, l1s, l2s, 50000)
	if err != nil {
		t.Fatal(err)
	}
	for _, l1 := range l1s {
		if a.L1Local[l1] != b.L1Local[l1] || a.WritebackPerAccess[l1] != b.WritebackPerAccess[l1] {
			t.Fatalf("L1 stats differ between identical builds at l1=%d", l1)
		}
		for _, l2 := range l2s {
			if a.L2Local[l1][l2] != b.L2Local[l1][l2] {
				t.Fatalf("L2 local differs between identical builds at (%d,%d)", l1, l2)
			}
		}
	}
}

// TestBuildCtxCancellation: a cancelled context aborts the pass with the
// context's error and does not poison the memo for later callers.
func TestBuildCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	memo := profile.NewMemo()
	p := trace.SPEC2000(1)
	if _, err := memo.BuildMissMatrixCtx(ctx, p, cachecfg.L1Sizes(), cachecfg.L2Sizes(), 300000); err == nil {
		t.Fatal("cancelled build succeeded")
	}
	if _, err := memo.BuildMissMatrixCtx(t.Context(), p, cachecfg.L1Sizes(), cachecfg.L2Sizes(), 300000); err != nil {
		t.Fatalf("memo poisoned by cancelled build: %v", err)
	}
}
