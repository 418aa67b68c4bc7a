package core

import (
	"testing"

	"repro/internal/cachecfg"
)

var designSink *CacheDesign

// BenchmarkDesignColdStart builds, one after another and through
// DesignCache rather than the memo, the ten organizations perfbench's
// set-up characterizes: L1 4–64 KB and L2 256 KB–4 MB. One op is the
// cold start a process pays before its first point on that grid; the
// model fits (fit.LevenbergMarquardt) are most of it.
func BenchmarkDesignColdStart(b *testing.B) {
	var cfgs []cachecfg.Config
	for _, kb := range []int{4, 8, 16, 32, 64} {
		cfgs = append(cfgs, cachecfg.L1(kb*cachecfg.KB))
	}
	for _, kb := range []int{256, 512, 1024, 2048, 4096} {
		cfgs = append(cfgs, cachecfg.L2(kb*cachecfg.KB))
	}
	tech := SharedTechnology()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			d, err := DesignCache(tech, cfg)
			if err != nil {
				b.Fatal(err)
			}
			designSink = d
		}
	}
}
