package obs

import (
	"strings"
	"testing"
)

// BenchmarkCounterInc is the cost floor for instrumenting a hot loop: one
// resolved counter handle, one atomic add per event.
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("n", "", "kind").With("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkHistogramObserve is what work.Run pays per item: bucket search
// plus three atomic updates.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("lat", "", nil, "kind", "fidelity").With("bench", "trace")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) * 0.001)
	}
}

// BenchmarkSnapshotRender prices a /metrics scrape of a realistically
// sized registry (a few families, a handful of series each).
func BenchmarkSnapshotRender(b *testing.B) {
	r := NewRegistry()
	for _, kind := range []string{"scenario-batch", "experiments", "grid"} {
		for _, fid := range []string{"trace", "analytical"} {
			h := r.Histogram("work_item_seconds", "", nil, "kind", "fidelity").With(kind, fid)
			for i := 0; i < 100; i++ {
				h.Observe(float64(i) * 0.002)
			}
			r.Counter("work_items_total", "", "kind", "fidelity").With(kind, fid).Add(100)
		}
		r.Gauge("work_inflight_items", "", "kind").WithFunc(func() float64 { return 4 }, kind)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		renderText(&sb, r.Snapshot())
	}
}
