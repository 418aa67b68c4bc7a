package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/cachecfg"
	"repro/internal/components"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/opt"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/units"
)

var (
	once   sync.Once
	design *CacheDesign
	point  *opt.TwoLevel
)

func setup(t *testing.T) (*CacheDesign, *opt.TwoLevel) {
	t.Helper()
	once.Do(func() {
		d, err := DesignCache(device.Default65nm(), cachecfg.L1(16*cachecfg.KB))
		if err != nil {
			t.Fatal(err)
		}
		design = d
		tl, err := Point(t.Context(), Workload{Name: Average, Seed: 1, Accesses: 200_000},
			16*cachecfg.KB, 512*cachecfg.KB, mem.DefaultDDR())
		if err != nil {
			t.Fatal(err)
		}
		point = &tl
	})
	if design == nil || point == nil {
		t.Fatal("setup failed earlier")
	}
	return design, point
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
	_, tl := setup(t)
	if tl.M1 <= 0 || tl.M1 >= 1 || tl.M2 <= 0 || tl.M2 > 1 {
		t.Fatalf("miss rates %v, %v", tl.M1, tl.M2)
	}
	a1 := components.Uniform(opt.DefaultOP())
	a2 := components.Uniform(opt.ConservativeOP())
	am := tl.AMAT(a1, a2)
	if am < 500*units.Picosecond || am > 10*units.Nanosecond {
		t.Errorf("AMAT %v out of regime", am)
	}
	e := tl.System(a1, a2).TotalEnergyJ()
	if e < 10*units.Picojoule || e > 5000*units.Picojoule {
		t.Errorf("total energy %v pJ out of regime", units.ToPJ(e))
	}
}

func TestHierarchyOptimizeL2(t *testing.T) {
	_, tl := setup(t)
	a1 := components.Uniform(opt.DefaultOP())
	target := tl.AMAT(a1, components.Uniform(device.OP(0.40, 13)))
	r, err := tl.OptimizeL2Ctx(t.Context(), opt.SchemeII, a1, SharedKnobGrid(), target)
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
	_, tl := setup(t)
	a := components.Uniform(device.OP(0.35, 12))
	target := tl.AMAT(a, a)
	vths, toxs := opt.CoarseMenu()
	r, err := tl.OptimizeTuplesCtx(t.Context(), opt.TupleBudget{NTox: 2, NVth: 2}, vths, toxs, target)
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

// TestHierarchyReadsSharedDesigns pins Point to the process memo: its
// levels are the models of the designs SharedDesign returns, not private
// builds.
func TestHierarchyReadsSharedDesigns(t *testing.T) {
	_, tl := setup(t)
	for _, tc := range []struct {
		got opt.Evaluator
		cfg cachecfg.Config
	}{{tl.L1, cachecfg.L1(16 * cachecfg.KB)}, {tl.L2, cachecfg.L2(512 * cachecfg.KB)}} {
		want, err := SharedDesign(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tc.got != want.Model {
			t.Errorf("%v: Point built its own design", tc.cfg)
		}
	}
}

// TestTwoLevelRefusesMissingPair checks TwoLevel reads only pairs the
// matrix holds: a size it lacks is an error, not a miss rate of 0.
func TestTwoLevelRefusesMissingPair(t *testing.T) {
	const l1, l2 = 16 * cachecfg.KB, 512 * cachecfg.KB
	mm := &sim.MissMatrix{
		Workload: "tpcc",
		L1Local:  map[int]float64{l1: 0.05},
		L2Local:  map[int]map[int]float64{l1: {l2: 0.3}},
	}
	tl, err := TwoLevel(l1, l2, mm, mem.DefaultDDR())
	if err != nil {
		t.Fatalf("held pair refused: %v", err)
	}
	if tl.M1 != 0.05 || tl.M2 != 0.3 {
		t.Errorf("miss rates %v, %v; want 0.05, 0.3", tl.M1, tl.M2)
	}
	for _, pair := range [][2]int{{l1, 256 * cachecfg.KB}, {32 * cachecfg.KB, l2}} {
		if _, err := TwoLevel(pair[0], pair[1], mm, mem.DefaultDDR()); err == nil ||
			!strings.Contains(err.Error(), "holds no") {
			t.Errorf("pair %v: err %v, want a refusal", pair, err)
		}
	}
}

// TestPointMissRatesExact pins Point's analytical miss rates to the
// matrix path bit for bit: every suite and Average, every L1 × L2 size
// of the design space, two seeds and two trace lengths, against TwoLevel
// over sim.Average of the workload's matrices. No golden holds an
// analytical Average point. A cancelled context fails Point at either
// fidelity, even with every profile warm.
func TestPointMissRatesExact(t *testing.T) {
	l1s, l2s := cachecfg.L1Sizes(), cachecfg.L2Sizes()
	for _, name := range []string{"spec2000", "specweb", "tpcc", Average} {
		for _, seed := range []int64{1, 7} {
			for _, n := range []int{20_000, 50_000} {
				w := Workload{Name: name, Seed: seed, Accesses: n, Fidelity: profile.FidelityAnalytical}
				ms, err := w.MissMatrices(t.Context(), l1s, l2s)
				if err != nil {
					t.Fatal(err)
				}
				avg, err := sim.Average(ms)
				if err != nil {
					t.Fatal(err)
				}
				for _, l1 := range l1s {
					for _, l2 := range l2s {
						want, err := TwoLevel(l1, l2, avg, mem.DefaultDDR())
						if err != nil {
							t.Fatal(err)
						}
						got, err := Point(t.Context(), w, l1, l2, mem.DefaultDDR())
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(got.M1) != math.Float64bits(want.M1) ||
							math.Float64bits(got.M2) != math.Float64bits(want.M2) {
							t.Errorf("%+v L1 %d L2 %d: M1, M2 = %v, %v; want %v, %v",
								w, l1, l2, got.M1, got.M2, want.M1, want.M2)
						}
						if got != want {
							t.Errorf("%+v L1 %d L2 %d: Point %+v, want %+v", w, l1, l2, got, want)
						}
					}
				}
			}
		}
	}
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	for _, fidelity := range []string{profile.FidelityAnalytical, profile.FidelityTrace} {
		w := Workload{Name: Average, Seed: 1, Accesses: 20_000, Fidelity: fidelity}
		if _, err := Point(ctx, w, 16*cachecfg.KB, 512*cachecfg.KB, mem.DefaultDDR()); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled Point returned %v, want context.Canceled", fidelity, err)
		}
	}
}

// TestWorkloadValidate pins the one name rule: the three suites and
// Average, nothing else, without allocating.
func TestWorkloadValidate(t *testing.T) {
	for _, name := range []string{"spec2000", "specweb", "tpcc", Average} {
		if err := (Workload{Name: name}).Validate(); err != nil {
			t.Errorf("%q refused: %v", name, err)
		}
	}
	for _, name := range []string{"", "SPEC2000", "tpcc ", "stream", "ptrchase", "avg"} {
		err := (Workload{Name: name}).Validate()
		if err == nil || err.Error() != fmt.Sprintf("unknown workload %q", name) {
			t.Errorf("%q: err %v, want unknown workload", name, err)
		}
	}
	w := Workload{Name: "tpcc", Seed: 7}
	if n := testing.AllocsPerRun(100, func() { _ = w.Validate() }); n != 0 {
		t.Errorf("Validate allocates %v times per call", n)
	}
}
