package grid

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// benchGrid expands a 16-point grid over (l1_kb, l2_kb) for the workload
// at the given fidelity. The axes repeat across iterations, so workload
// profiles and cache designs are shared exactly as a long-running sweep
// shares them — the benchmark measures the *marginal* per-point cost,
// which is what a million-point grid pays after its first few points.
func benchGrid(b *testing.B, workload, fidelity string) *Batch {
	b.Helper()
	spec := fmt.Sprintf(`{"grid":{
		"name":"b-l1{l1_kb}-l2{l2_kb}-{fidelity}",
		"axes":{"l1_kb":[16,32,64,128],"l2_kb":[256,512,1024,2048]},
		"base":{"workload":%q,"accesses":20000,"fidelity":%q}
	}}`, workload, fidelity)
	s, err := Load(strings.NewReader(spec))
	if err != nil {
		b.Fatal(err)
	}
	gb, err := s.Expand()
	if err != nil {
		b.Fatal(err)
	}
	return gb
}

// BenchmarkGridRunItem pins the marginal per-point cost of a grid sweep at
// both fidelities — the number the HardMaxPoints cap and the -frontier-refine
// shortlist economics are sized against. Substrate shared across points
// (workload profiles, cache designs, the knob grid) is warmed by the first
// iteration; steady-state sec/op is the per-point wall a large grid pays.
// The analytical-average case reads three suites' profiles per point.
func BenchmarkGridRunItem(b *testing.B) {
	for _, bc := range []struct{ name, workload, fidelity string }{
		{"analytical", "tpcc", "analytical"},
		{"trace", "tpcc", "trace"},
		{"analytical-average", "average", "analytical"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			gb := benchGrid(b, bc.workload, bc.fidelity)
			ctx := context.Background()
			// Warm every point once so the loop measures the marginal cost —
			// the workload profiling pass and the per-cache-organization
			// design builds are process-wide memos a long sweep pays O(distinct
			// organizations) times, not O(points) times.
			for i := 0; i < gb.Len(); i++ {
				if _, err := gb.RunItem(ctx, i); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gb.RunItem(ctx, i%gb.Len()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrontierAdd is the frontier reduction's cost per result line,
// which a grid run pays on its one emitting goroutine: scan over the
// lines RunItem emits without tuples (the one-pass branch), json over
// the lines with tuples (encoding/json's branch).
func BenchmarkFrontierAdd(b *testing.B) {
	all := runItemLines(b)
	for _, bc := range []struct {
		name  string
		lines [][]byte
	}{{"scan", all[:len(all)/2]}, {"json", all[len(all)/2:]}} {
		b.Run(bc.name, func(b *testing.B) {
			var f Frontier
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%1024 == 0 {
					f.cand = f.cand[:0]
				}
				if err := f.Add(i, bc.lines[i%len(bc.lines)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
