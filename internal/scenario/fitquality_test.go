package scenario

import (
	"testing"

	"repro/internal/cachecfg"
	"repro/internal/core"
)

// TestFitQualityContract is the physics contract behind every reader's R2
// gate (core's 0.95; an experiments Env's max(0.95, MinR2)): every
// canonical size, and both ends of the range Validate admits (1 KB and
// MaxCacheKB) at each level, fit the paper's leakage and delay forms at
// R2 >= 0.97 on every component. It reads through core's memo, as every
// run does.
func TestFitQualityContract(t *testing.T) {
	const minR2 = 0.97
	var cfgs []cachecfg.Config
	for _, size := range append(cachecfg.L1Sizes(), cachecfg.KB, MaxCacheKB*cachecfg.KB) {
		cfgs = append(cfgs, cachecfg.L1(size))
	}
	for _, size := range append(cachecfg.L2Sizes(), cachecfg.KB, MaxCacheKB*cachecfg.KB) {
		cfgs = append(cfgs, cachecfg.L2(size))
	}
	for _, cfg := range cfgs {
		d, err := core.SharedDesign(cfg)
		if err != nil {
			t.Fatalf("%s %v: %v", cfg.Name, cfg, err)
		}
		for _, c := range d.Model.Comps {
			if c.LeakStats.R2 < minR2 || c.DelayStats.R2 < minR2 {
				t.Errorf("%s %v %v: leakage R2 %.5f, delay R2 %.5f, want both >= %.2f",
					cfg.Name, cfg, c.Part, c.LeakStats.R2, c.DelayStats.R2, minR2)
			}
		}
	}
}
