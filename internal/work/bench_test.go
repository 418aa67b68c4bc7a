package work

// Driver benchmarks on the synthetic toy kind: they measure the unified
// driver's own overhead (scheduling, ordering, emission) with item cost
// near zero, so a regression here is a regression in the orchestration
// hot path every workload kind shares. The CI benchmark-regression job
// gates on these together with the internal/sweep engine benchmarks.

import (
	"io"
	"testing"

	"repro/internal/obs"
)

const benchItems = 512

// BenchmarkRunSequential is the single-worker streaming baseline.
func BenchmarkRunSequential(b *testing.B) {
	benchRun(b, 1)
}

// BenchmarkRunParallel streams the same batch through a worker pool.
func BenchmarkRunParallel(b *testing.B) {
	benchRun(b, 4)
}

func benchRun(b *testing.B, workers int) {
	b.ReportAllocs()
	batch := toy(benchItems)
	for i := 0; i < b.N; i++ {
		if err := Run(b.Context(), batch, Options{Workers: workers}, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollect measures the buffered driver (the distributed unit
// executor's path).
func BenchmarkCollect(b *testing.B) {
	b.ReportAllocs()
	batch := toy(benchItems)
	for i := 0; i < b.N; i++ {
		if _, err := Collect(b.Context(), batch, Options{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsOverhead prices Options.Metrics on the driver hot path:
// the same parallel streamed run bare and instrumented. Toy items cost
// nearly nothing, so this is the worst case — the instrumentation
// (sampled latency timing plus a handful of atomic adds per item) is
// priced against the driver's own per-item overhead, not against real
// workloads whose items run 0.4ms–75ms. The target is <5% sec/op
// between the two sub-benchmarks, which nothing checks yet; CI's
// bench-regression gate watches each against the merge base.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("bare", func(b *testing.B) {
		benchRun(b, 4)
	})
	b.Run("metrics", func(b *testing.B) {
		b.ReportAllocs()
		batch := toy(benchItems)
		reg := obs.NewRegistry()
		for i := 0; i < b.N; i++ {
			if err := Run(b.Context(), batch, Options{Workers: 4, Metrics: reg}, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}
