package profile_test

import (
	"testing"

	"repro/internal/cachecfg"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchAccesses matches the per-point scale of the example grid sweeps:
// small enough that the trace-driven side finishes in benchmark time,
// large enough that both sides are in their asymptotic regime.
const benchAccesses = 60000

// BenchmarkAnalyticalVsTraceDriven measures the miss-matrix hot loop the
// way grid sweeps pay for it: every design point of the standard suite
// matrix (each workload of trace.Suites at each (L1, L2) pair of the
// canonical cachecfg size lists) builds its own single-cell matrix, which
// is exactly what scenario.RunCtx does per grid point. The trace-driven
// path re-simulates O(accesses) per point; the analytical path pays one
// profiling pass per workload and O(1) per point. The one-shot pair
// builds the full suite matrix in a single call (the figures/exp shape),
// where trace-driven amortizes its L1 passes across the L2 list.
func BenchmarkAnalyticalVsTraceDriven(b *testing.B) {
	suites := trace.Suites(1)
	l1s, l2s := cachecfg.L1Sizes(), cachecfg.L2Sizes()

	b.Run("per-point/trace-driven", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range suites {
				for _, l1 := range l1s {
					for _, l2 := range l2s {
						if _, err := sim.BuildMissMatrixCtx(b.Context(), p, []int{l1}, []int{l2}, benchAccesses); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		}
	})
	b.Run("per-point/analytical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			memo := profile.NewMemo() // fresh cache: profiling passes are inside the measurement
			for _, p := range suites {
				for _, l1 := range l1s {
					for _, l2 := range l2s {
						if _, err := memo.BuildMissMatrixCtx(b.Context(), p, []int{l1}, []int{l2}, benchAccesses); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		}
	})

	b.Run("one-shot/trace-driven", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.BuildSuiteMatricesCtx(b.Context(), suites, l1s, l2s, benchAccesses); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("one-shot/analytical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			memo := profile.NewMemo()
			for _, p := range suites {
				if _, err := memo.BuildMissMatrixCtx(b.Context(), p, l1s, l2s, benchAccesses); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkProfileBuild isolates the profiling pass itself (one
// workload, one stream): the fixed cost the analytical path pays once
// per (workload, trace length).
func BenchmarkProfileBuild(b *testing.B) {
	p := trace.SPEC2000(1)
	for i := 0; i < b.N; i++ {
		if _, err := profile.BuildCtx(b.Context(), p, benchAccesses); err != nil {
			b.Fatal(err)
		}
	}
}
