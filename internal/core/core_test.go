package core

import (
	"sync"
	"testing"

	"repro/internal/cachecfg"
	"repro/internal/components"
	"repro/internal/device"
	"repro/internal/opt"
	"repro/internal/units"
)

var (
	once   sync.Once
	design *CacheDesign
	hier   *HierarchyDesign
)

func setup(t *testing.T) (*CacheDesign, *HierarchyDesign) {
	t.Helper()
	once.Do(func() {
		d, err := DesignCache(device.Default65nm(), cachecfg.L1(16*cachecfg.KB))
		if err != nil {
			t.Fatal(err)
		}
		design = d
		h, err := DesignHierarchy(t.Context(), 16*cachecfg.KB, 512*cachecfg.KB,
			HierarchyOptions{Accesses: 200_000})
		if err != nil {
			t.Fatal(err)
		}
		hier = h
	})
	if design == nil || hier == nil {
		t.Fatal("setup failed earlier")
	}
	return design, hier
}

func TestDesignCacheEvaluate(t *testing.T) {
	d, _ := setup(t)
	leak, delay, energy := d.Evaluate(components.Uniform(device.OP(0.3, 12)))
	if leak <= 0 || delay <= 0 || energy <= 0 {
		t.Errorf("bad evaluation: %v %v %v", leak, delay, energy)
	}
}

func TestDesignCacheRejectsBadConfig(t *testing.T) {
	if _, err := DesignCache(device.Default65nm(), cachecfg.Config{SizeBytes: 3}); err == nil {
		t.Error("bad config accepted")
	}
}

func TestOptimizeLeakageAllSchemes(t *testing.T) {
	d, _ := setup(t)
	lo, hi := d.DelayRange()
	if lo <= 0 || hi <= lo {
		t.Fatalf("delay range %v..%v", lo, hi)
	}
	budget := lo + 0.5*(hi-lo)
	var prev float64
	for _, s := range []opt.Scheme{opt.SchemeIII, opt.SchemeII, opt.SchemeI} {
		r, err := d.OptimizeLeakageCtx(t.Context(), s, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Feasible {
			t.Fatalf("%v infeasible at mid budget", s)
		}
		if prev != 0 && r.LeakageW > prev*(1+1e-3) {
			t.Errorf("%v should improve on the previous scheme", s)
		}
		prev = r.LeakageW
	}
}

func TestTradeoffCurve(t *testing.T) {
	d, _ := setup(t)
	curve, err := d.TradeoffCurveCtx(t.Context(), opt.SchemeII, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 6 {
		t.Fatalf("curve size %d", len(curve))
	}
	feasible := 0
	for _, r := range curve {
		if r.Feasible {
			feasible++
		}
	}
	if feasible < 5 {
		t.Errorf("only %d/6 budgets feasible", feasible)
	}
}

func TestHierarchyBasics(t *testing.T) {
	_, h := setup(t)
	if h.M1 <= 0 || h.M1 >= 1 || h.M2 <= 0 || h.M2 > 1 {
		t.Fatalf("miss rates %v, %v", h.M1, h.M2)
	}
	a1 := components.Uniform(opt.DefaultOP())
	a2 := components.Uniform(opt.ConservativeOP())
	am := h.AMAT(a1, a2)
	if am < 500*units.Picosecond || am > 10*units.Nanosecond {
		t.Errorf("AMAT %v out of regime", am)
	}
	e := h.twoLevel().System(a1, a2).TotalEnergyJ()
	if e < 10*units.Picojoule || e > 5000*units.Picojoule {
		t.Errorf("total energy %v pJ out of regime", units.ToPJ(e))
	}
}

func TestHierarchyOptimizeL2(t *testing.T) {
	_, h := setup(t)
	a1 := components.Uniform(opt.DefaultOP())
	target := h.AMAT(a1, components.Uniform(device.OP(0.40, 13)))
	r, err := h.OptimizeL2(t.Context(), opt.SchemeII, a1, target)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatal("L2 optimization infeasible")
	}
	if r.AMATS > target*(1+1e-9) {
		t.Error("AMAT budget violated")
	}
}

func TestHierarchyOptimizeTuples(t *testing.T) {
	_, h := setup(t)
	a := components.Uniform(device.OP(0.35, 12))
	target := h.AMAT(a, a)
	r, err := h.OptimizeTuples(t.Context(), opt.TupleBudget{NTox: 2, NVth: 2}, nil, nil, target)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatal("tuple optimization infeasible")
	}
	if got := r.Assignment.DistinctVths(); got > 2 {
		t.Errorf("used %d Vth values", got)
	}
	if got := r.Assignment.DistinctToxs(); got > 2 {
		t.Errorf("used %d Tox values", got)
	}
}

// TestHierarchyReadsSharedDesigns pins DesignHierarchy to the process
// memo: its levels are the designs SharedDesign returns, not private
// builds.
func TestHierarchyReadsSharedDesigns(t *testing.T) {
	_, h := setup(t)
	for _, tc := range []struct {
		got *CacheDesign
		cfg cachecfg.Config
	}{{h.L1, cachecfg.L1(16 * cachecfg.KB)}, {h.L2, cachecfg.L2(512 * cachecfg.KB)}} {
		want, err := SharedDesign(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tc.got != want {
			t.Errorf("%v: DesignHierarchy built its own design", tc.cfg)
		}
	}
}
