package opt

import (
	"context"
	"testing"

	"repro/internal/charlib"
)

var benchResult Result

// BenchmarkSearch prices the prepared search of a fitted 512 KB L2 over
// every OptimizationGrid pair, the grid core.SharedKnobGrid holds: cold
// builds a search and answers one Scheme II and one Scheme III budget,
// scoring every candidate, and schemeII and schemeIII answer one budget
// from a built search, the per-point cost of a shared design.
func BenchmarkSearch(b *testing.B) {
	_, l2, _ := testModels(b)
	g := charlib.OptimizationGrid()
	ops := PairsFromGrid(g.Vths, g.ToxAs)
	lo, hi := FeasibleDelayRange(l2, ops)
	budget := (lo + hi) / 2
	ctx := context.Background()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := &search{ev: l2, ops: ops}
			if _, err := s.query(ctx, SchemeII, budget); err != nil {
				b.Fatal(err)
			}
			benchResult, _ = s.query(ctx, SchemeIII, budget)
		}
	})
	warm := &search{ev: l2, ops: ops}
	for _, scheme := range []Scheme{SchemeII, SchemeIII} {
		name := map[Scheme]string{SchemeII: "schemeII", SchemeIII: "schemeIII"}[scheme]
		b.Run(name, func(b *testing.B) {
			if _, err := warm.query(ctx, scheme, budget); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchResult, _ = warm.query(ctx, scheme, budget)
			}
		})
	}
}
