package opt

import (
	"math"
	"sync"
	"testing"

	"repro/internal/cachecfg"
	"repro/internal/charlib"
	"repro/internal/components"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/units"
)

var (
	onceModels sync.Once
	l1Model    *model.CacheModel
	l2Model    *model.CacheModel
	l1Direct   Direct
)

func testModels(t testing.TB) (*model.CacheModel, *model.CacheModel, Direct) {
	t.Helper()
	onceModels.Do(func() {
		tech := device.Default65nm()
		c1, err := components.New(tech, cachecfg.L1(16*cachecfg.KB))
		if err != nil {
			t.Fatal(err)
		}
		c2, err := components.New(tech, cachecfg.L2(512*cachecfg.KB))
		if err != nil {
			t.Fatal(err)
		}
		l1Model, err = model.Build(c1, charlib.DefaultGrid(), 0.97)
		if err != nil {
			t.Fatal(err)
		}
		l2Model, err = model.Build(c2, charlib.DefaultGrid(), 0.97)
		if err != nil {
			t.Fatal(err)
		}
		l1Direct = Direct{Cache: c1}
	})
	if l1Model == nil || l2Model == nil {
		t.Fatal("model construction failed earlier")
	}
	return l1Model, l2Model, l1Direct
}

func midOps() []device.OperatingPoint {
	return PairsFromGrid(units.GridSteps(0.20, 0.50, 0.01), units.GridSteps(10, 14, 0.25))
}

func coarseOps() []device.OperatingPoint {
	return PairsFromGrid(units.GridSteps(0.20, 0.50, 0.1), units.GridSteps(10, 14, 2))
}

func TestParetoFront(t *testing.T) {
	pts := []ParetoPoint{
		{DelayS: 1, LeakageW: 10},
		{DelayS: 2, LeakageW: 5},
		{DelayS: 3, LeakageW: 7}, // dominated by (2,5)
		{DelayS: 4, LeakageW: 2},
		{DelayS: 1, LeakageW: 12}, // dominated by (1,10)
	}
	front := ParetoFront(pts)
	if len(front) != 3 {
		t.Fatalf("front size = %d, want 3: %+v", len(front), front)
	}
	for i := 1; i < len(front); i++ {
		if front[i].DelayS <= front[i-1].DelayS || front[i].LeakageW >= front[i-1].LeakageW {
			t.Errorf("front not strictly improving: %+v", front)
		}
	}
}

func TestParetoFrontEmpty(t *testing.T) {
	if got := ParetoFront(nil); got != nil {
		t.Errorf("empty input should give nil, got %v", got)
	}
}

func TestBestUnderBudget(t *testing.T) {
	front := []ParetoPoint{
		{DelayS: 1, LeakageW: 10},
		{DelayS: 2, LeakageW: 5},
		{DelayS: 4, LeakageW: 2},
	}
	if _, ok := BestUnderBudget(front, 0.5); ok {
		t.Error("budget below fastest point should be infeasible")
	}
	p, ok := BestUnderBudget(front, 2.5)
	if !ok || p.LeakageW != 5 {
		t.Errorf("budget 2.5 should pick (2,5): %+v ok=%v", p, ok)
	}
	p, ok = BestUnderBudget(front, 100)
	if !ok || p.LeakageW != 2 {
		t.Errorf("large budget should pick the least leaky point: %+v", p)
	}
}

func TestSchemeOrdering(t *testing.T) {
	// The paper: Scheme III worst, Scheme I best, Scheme II close to I.
	l1m, _, _ := testModels(t)
	ops := midOps()
	lo, hi := FeasibleDelayRange(l1m, ops)
	budget := lo + 0.5*(hi-lo)

	r3, err := OptimizeCtx(t.Context(), SchemeIII, l1m, ops, budget)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := OptimizeCtx(t.Context(), SchemeII, l1m, ops, budget)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := OptimizeCtx(t.Context(), SchemeI, l1m, ops, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Feasible || !r2.Feasible || !r1.Feasible {
		t.Fatalf("all schemes should be feasible at mid budget: %v / %v / %v", r1, r2, r3)
	}
	const eps = 1e-9
	if r2.LeakageW > r3.LeakageW*(1+eps) {
		t.Errorf("Scheme II (%v W) must not exceed Scheme III (%v W)", r2.LeakageW, r3.LeakageW)
	}
	if r1.LeakageW > r2.LeakageW*(1+1e-3) { // DP quantization tolerance
		t.Errorf("Scheme I (%v W) must not exceed Scheme II (%v W)", r1.LeakageW, r2.LeakageW)
	}
	// The gap II -> III should be large (the paper's headline), and clearly
	// larger than the gap I -> II ("scheme II is only slightly behind
	// scheme I ... scheme III is the worst performer").
	gapIIIoverII := r3.LeakageW / r2.LeakageW
	gapIIoverI := r2.LeakageW / math.Max(r1.LeakageW, 1e-30)
	if gapIIIoverII < 1.5 {
		t.Errorf("Scheme II should beat Scheme III clearly: III=%v II=%v", r3.LeakageW, r2.LeakageW)
	}
	if gapIIoverI > 1.8 {
		t.Errorf("Scheme II should be close to Scheme I: II=%v I=%v", r2.LeakageW, r1.LeakageW)
	}
	if gapIIoverI >= gapIIIoverII {
		t.Errorf("the III->II improvement (%vx) should dominate the II->I improvement (%vx)",
			gapIIIoverII, gapIIoverI)
	}
	// Delay constraints respected.
	for _, r := range []Result{r1, r2, r3} {
		if r.DelayS > budget*(1+1e-9) {
			t.Errorf("%v violates budget %v", r, budget)
		}
	}
}

func TestOptimalAssignmentStructure(t *testing.T) {
	// "high values of Vth and thick Tox's are always assigned to the memory
	// cell arrays, and Vth/Tox in the peripheral components have been set
	// sufficiently low."
	l1m, _, _ := testModels(t)
	ops := midOps()
	lo, hi := FeasibleDelayRange(l1m, ops)
	for _, frac := range []float64{0.35, 0.5, 0.7} {
		budget := lo + frac*(hi-lo)
		r, err := OptimizeCtx(t.Context(), SchemeII, l1m, ops, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Feasible {
			continue
		}
		cell := r.Assignment[components.PartCellArray]
		peri := r.Assignment[components.PartDecoder]
		if cell.Vth < peri.Vth {
			t.Errorf("budget %.0fps: cell Vth %v below periphery %v",
				units.ToPS(budget), cell.Vth, peri.Vth)
		}
		if cell.ToxM < peri.ToxM {
			t.Errorf("budget %.0fps: cell Tox %v below periphery %v",
				units.ToPS(budget), cell.ToxAngstrom(), peri.ToxAngstrom())
		}
	}
}

// ExhaustiveSchemeI enumerates the full cross product of candidate points —
// exponential, usable only on coarse grids: the reference the Scheme I DP
// is validated against.
func ExhaustiveSchemeI(ev Evaluator, ops []device.OperatingPoint, delayBudget float64) Result {
	best := infeasible(SchemeI)
	var asgn components.Assignment
	var recurse func(k int, delay, leak float64)
	recurse = func(k int, delay, leak float64) {
		if delay > delayBudget || leak >= best.LeakageW {
			return // prune: both metrics only grow
		}
		if k == int(components.PartCount) {
			best.LeakageW = leak
			best.DelayS = delay
			best.Assignment = asgn
			best.Feasible = true
			return
		}
		for _, op := range ops {
			asgn[k] = op
			best.Evaluated++
			recurse(k+1,
				delay+ev.PartDelayS(partID(k), op),
				leak+ev.PartLeakageW(partID(k), op))
		}
	}
	recurse(0, 0, 0)
	return best
}

// TestSchemeIMatchesExhaustiveOnCoarseGrid holds the Scheme I dynamic
// program, at the bin count production uses, to the exhaustive search:
// within 5e-3 of its leakage, and never over the true budget.
func TestSchemeIMatchesExhaustiveOnCoarseGrid(t *testing.T) {
	l1m, _, _ := testModels(t)
	ops := coarseOps()
	lo, hi := FeasibleDelayRange(l1m, ops)
	for _, frac := range []float64{0.4, 0.6, 0.9} {
		budget := lo + frac*(hi-lo)
		dp, err := OptimizeCtx(t.Context(), SchemeI, l1m, ops, budget)
		if err != nil {
			t.Fatal(err)
		}
		ex := ExhaustiveSchemeI(l1m, ops, budget)
		if dp.Feasible != ex.Feasible {
			t.Fatalf("budget %v: DP feasible=%v, exhaustive=%v", budget, dp.Feasible, ex.Feasible)
		}
		if !dp.Feasible {
			continue
		}
		if dp.LeakageW > ex.LeakageW*(1+5e-3) {
			t.Errorf("budget %.0fps: DP leak %v > exhaustive %v",
				units.ToPS(budget), dp.LeakageW, ex.LeakageW)
		}
		if dp.DelayS > budget*(1+1e-9) {
			t.Errorf("DP violates the true budget: %v > %v", dp.DelayS, budget)
		}
	}
}

func TestOptimumMonotoneInBudget(t *testing.T) {
	l1m, _, _ := testModels(t)
	ops := midOps()
	lo, hi := FeasibleDelayRange(l1m, ops)
	var prev float64 = math.Inf(1)
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		r, err := OptimizeCtx(t.Context(), SchemeIII, l1m, ops, lo+frac*(hi-lo))
		if err != nil {
			t.Fatal(err)
		}
		if !r.Feasible {
			continue
		}
		if r.LeakageW > prev*(1+1e-12) {
			t.Errorf("optimum leakage rose with larger budget at frac %v", frac)
		}
		prev = r.LeakageW
	}
}

func TestInfeasibleBudget(t *testing.T) {
	l1m, _, _ := testModels(t)
	ops := midOps()
	lo, _ := FeasibleDelayRange(l1m, ops)
	for _, s := range []Scheme{SchemeI, SchemeII, SchemeIII} {
		r, err := OptimizeCtx(t.Context(), s, l1m, ops, lo/10)
		if err != nil {
			t.Fatal(err)
		}
		if r.Feasible {
			t.Errorf("%v: impossible budget reported feasible", s)
		}
	}
}

func TestFrontier(t *testing.T) {
	l1m, _, _ := testModels(t)
	ops := midOps()
	lo, hi := FeasibleDelayRange(l1m, ops)
	budgets := units.Linspace(lo, hi, 8)
	rs, err := FrontierCtx(t.Context(), SchemeIII, l1m, ops, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(budgets) {
		t.Fatalf("frontier size %d", len(rs))
	}
	feasible := 0
	for _, r := range rs {
		if r.Feasible {
			feasible++
		}
	}
	if feasible < len(rs)-1 {
		t.Errorf("only %d of %d budgets feasible", feasible, len(rs))
	}
}

func TestDirectAgreesWithModelOrdering(t *testing.T) {
	// Optimizing against the fitted model and against the raw netlists must
	// agree on the big picture (Scheme II optimum within ~40% leakage).
	l1m, _, dir := testModels(t)
	ops := coarseOps()
	lo, hi := FeasibleDelayRange(l1m, ops)
	budget := lo + 0.6*(hi-lo)
	rm, err := OptimizeCtx(t.Context(), SchemeII, l1m, ops, budget)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := OptimizeCtx(t.Context(), SchemeII, dir, ops, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !rm.Feasible || !rd.Feasible {
		t.Fatalf("feasibility mismatch: model=%v direct=%v", rm.Feasible, rd.Feasible)
	}
	trueLeakOfModelChoice := dir.LeakageW(rm.Assignment)
	if trueLeakOfModelChoice > rd.LeakageW*1.4 {
		t.Errorf("model-driven optimum is %vx worse than direct optimum",
			trueLeakOfModelChoice/rd.LeakageW)
	}
}

func TestVthOnlyAndToxOnlyGrids(t *testing.T) {
	vths := units.GridSteps(0.20, 0.50, 0.05)
	toxs := units.GridSteps(10, 14, 0.5)
	vg := VthOnlyGrid(vths, 12)
	if len(vg) != len(vths) {
		t.Fatalf("VthOnlyGrid size %d", len(vg))
	}
	for _, op := range vg {
		if op.ToxAngstrom() != 12 {
			t.Errorf("VthOnlyGrid leaked Tox %v", op.ToxAngstrom())
		}
	}
	tg := ToxOnlyGrid(toxs, 0.35)
	for _, op := range tg {
		if op.Vth != 0.35 {
			t.Errorf("ToxOnlyGrid leaked Vth %v", op.Vth)
		}
	}
}

func TestVthKnobBeatsToxKnob(t *testing.T) {
	// Section 4's conclusion: Vth is the more effective knob. A Vth-only
	// optimization at a sensible fixed Tox should reach lower leakage than a
	// Tox-only optimization at a sensible fixed Vth for the same mid budget.
	l1m, _, _ := testModels(t)
	full := midOps()
	lo, hi := FeasibleDelayRange(l1m, full)
	budget := lo + 0.6*(hi-lo)

	vOnly, err := OptimizeCtx(t.Context(), SchemeIII, l1m, VthOnlyGrid(units.GridSteps(0.20, 0.50, 0.005), 12), budget)
	if err != nil {
		t.Fatal(err)
	}
	tOnly, err := OptimizeCtx(t.Context(), SchemeIII, l1m, ToxOnlyGrid(units.GridSteps(10, 14, 0.1), 0.3), budget)
	if err != nil {
		t.Fatal(err)
	}
	if !vOnly.Feasible || !tOnly.Feasible {
		t.Fatalf("baseline optimizations infeasible: v=%v t=%v", vOnly.Feasible, tOnly.Feasible)
	}
	if vOnly.LeakageW >= tOnly.LeakageW {
		t.Errorf("Vth-only (%v W) should beat Tox-only (%v W)", vOnly.LeakageW, tOnly.LeakageW)
	}
}

func TestResultString(t *testing.T) {
	r := infeasible(SchemeII)
	if r.String() == "" {
		t.Error("empty string for infeasible result")
	}
	if SchemeI.String() != "Scheme I" || Scheme(9).String() == "" {
		t.Error("scheme names")
	}
}

func TestDefaultOPWithinRange(t *testing.T) {
	tech, op := device.Default65nm(), DefaultOP()
	if op.Vth < tech.VthMin || op.Vth > tech.VthMax || op.ToxM < tech.ToxMin || op.ToxM > tech.ToxMax {
		t.Errorf("default operating point %+v outside the technology's knob ranges", op)
	}
}

func TestTwoLevelBudgets(t *testing.T) {
	l1m, l2m, _ := testModels(t)
	tl := &TwoLevel{L1: l1m, L2: l2m, M1: 0.07, M2: 0.17, Mem: mem.DefaultDDR()}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	a1 := components.Uniform(DefaultOP())

	amatTarget := tl.AMAT(a1, components.Uniform(DefaultOP()))
	b, ok := tl.L2DelayBudget(a1, amatTarget)
	if !ok {
		t.Fatal("budget conversion failed at an achievable AMAT")
	}
	// The implied L2 delay budget must recover the same AMAT when spent.
	t2 := b
	back := tl.L1.AccessTimeS(a1) + tl.M1*(t2+tl.M2*tl.Mem.LatencyS)
	if !units.ApproxEqual(back, amatTarget, 1e-9, 0) {
		t.Errorf("budget round trip: %v vs %v", back, amatTarget)
	}
	// Impossible AMAT (below L1 hit time) is flagged.
	if _, ok := tl.L2DelayBudget(a1, tl.L1.AccessTimeS(a1)/2); ok {
		t.Error("impossible AMAT accepted")
	}
}

func TestTwoLevelOptimizeL2(t *testing.T) {
	l1m, l2m, _ := testModels(t)
	tl := &TwoLevel{L1: l1m, L2: l2m, M1: 0.07, M2: 0.17, Mem: mem.DefaultDDR()}
	a1 := components.Uniform(DefaultOP())
	// A mid AMAT target: halfway between the fastest and slowest system.
	ops := midOps()
	fast := tl.AMAT(a1, components.Uniform(device.OP(0.20, 10)))
	slow := tl.AMAT(a1, components.Uniform(device.OP(0.50, 14)))
	target := fast + 0.5*(slow-fast)

	single, err := tl.OptimizeL2Ctx(t.Context(), SchemeIII, a1, ops, target)
	if err != nil {
		t.Fatal(err)
	}
	split, err := tl.OptimizeL2Ctx(t.Context(), SchemeII, a1, ops, target)
	if err != nil {
		t.Fatal(err)
	}
	if !single.Feasible || !split.Feasible {
		t.Fatalf("L2 optimizations infeasible: single=%v split=%v", single.Feasible, split.Feasible)
	}
	if single.AMATS > target*(1+1e-9) || split.AMATS > target*(1+1e-9) {
		t.Error("AMAT constraint violated")
	}
	// The split assignment can only help (Scheme II dominates Scheme III).
	if split.LeakageW > single.LeakageW*(1+1e-9) {
		t.Errorf("split L2 (%v W) should not leak more than single-pair L2 (%v W)",
			split.LeakageW, single.LeakageW)
	}
	// Paper: the split's L2 cell array ends up much more conservative than
	// its periphery.
	cell := split.L2Assignment[components.PartCellArray]
	peri := split.L2Assignment[components.PartDecoder]
	if cell.Vth <= peri.Vth && cell.ToxM <= peri.ToxM {
		t.Errorf("split L2 should set the cell array more conservatively: cell=%v periph=%v", cell, peri)
	}
}

func TestTwoLevelOptimizeL1(t *testing.T) {
	l1m, l2m, _ := testModels(t)
	tl := &TwoLevel{L1: l1m, L2: l2m, M1: 0.07, M2: 0.17, Mem: mem.DefaultDDR()}
	a2 := components.Uniform(device.OP(0.45, 13))
	fast := tl.AMAT(components.Uniform(device.OP(0.20, 10)), a2)
	slow := tl.AMAT(components.Uniform(device.OP(0.50, 14)), a2)
	target := fast + 0.6*(slow-fast)
	r, err := tl.OptimizeL1Ctx(t.Context(), SchemeII, a2, midOps(), target)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatal("L1 optimization infeasible")
	}
	if r.AMATS > target*(1+1e-9) {
		t.Error("AMAT constraint violated")
	}
}

func TestTwoLevelValidate(t *testing.T) {
	l1m, l2m, _ := testModels(t)
	bad := &TwoLevel{L1: l1m, L2: l2m, M1: 1.5, M2: 0.2, Mem: mem.DefaultDDR()}
	if err := bad.Validate(); err == nil {
		t.Error("bad miss rate accepted")
	}
	bad2 := &TwoLevel{M1: 0.1, M2: 0.2, Mem: mem.DefaultDDR()}
	if err := bad2.Validate(); err == nil {
		t.Error("missing evaluators accepted")
	}
}

func TestCombinations(t *testing.T) {
	got := combinations(4, 2)
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("C(4,2) size = %d", len(got))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("combinations mismatch at %d: %v vs %v", i, got[i], want[i])
			}
		}
	}
	if combinations(3, 0) == nil || len(combinations(3, 0)) != 1 {
		t.Error("C(3,0) should be the empty set singleton")
	}
	if combinations(2, 3) != nil {
		t.Error("C(2,3) should be nil")
	}
}

func systemForTest(t *testing.T) *TwoLevel {
	l1m, l2m, _ := testModels(t)
	return &TwoLevel{
		L1: l1m, L2: l2m, M1: 0.07, M2: 0.17, Mem: mem.DefaultDDR(),
	}
}

func TestTupleBudgetValidate(t *testing.T) {
	if err := (TupleBudget{NTox: 0, NVth: 2}).Validate(7, 5); err == nil {
		t.Error("zero Tox budget accepted")
	}
	if err := (TupleBudget{NTox: 6, NVth: 2}).Validate(7, 5); err == nil {
		t.Error("budget above candidates accepted")
	}
	if err := (TupleBudget{NTox: 2, NVth: 2}).Validate(7, 5); err != nil {
		t.Errorf("valid budget rejected: %v", err)
	}
}

func TestTupleOptimizerRespectsBudget(t *testing.T) {
	tl := systemForTest(t)
	vths, toxs := CoarseMenu()
	amatMid := amatMidTarget(tl)
	for _, b := range Figure2Budgets() {
		r, err := tl.OptimizeTuplesCtx(t.Context(), b, vths, toxs, amatMid)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Feasible {
			t.Errorf("%v infeasible at mid AMAT", b)
			continue
		}
		if got := r.Assignment.DistinctVths(); got > b.NVth {
			t.Errorf("%v: assignment uses %d Vth values", b, got)
		}
		if got := r.Assignment.DistinctToxs(); got > b.NTox {
			t.Errorf("%v: assignment uses %d Tox values", b, got)
		}
		if r.AMATS > amatMid*(1+1e-9) {
			t.Errorf("%v: AMAT %v violates budget %v", b, r.AMATS, amatMid)
		}
	}
}

func amatMidTarget(tl *TwoLevel) float64 {
	fast := uniformAMAT(tl, device.OP(0.20, 10))
	slow := uniformAMAT(tl, device.OP(0.50, 14))
	return fast + 0.45*(slow-fast)
}

// uniformAMAT is tl's AMAT with every knob group at op.
func uniformAMAT(tl *TwoLevel, op device.OperatingPoint) float64 {
	a := components.Uniform(op)
	return tl.AMAT(a, a)
}

func TestTupleBudgetOrdering(t *testing.T) {
	// More values can only help: E(2,3) <= E(2,2) <= E(2,1); and the paper's
	// knob finding, E(1 Tox, 2 Vth) <= E(2 Tox, 1 Vth), which manifests in
	// the constrained (tight-AMAT) region where Figure 2 lives — at very
	// loose AMAT budgets every configuration converges to max knobs.
	tl := systemForTest(t)
	vths, toxs := CoarseMenu()
	target := amatMidTarget(tl)
	get := func(b TupleBudget, tgt float64) float64 {
		r, err := tl.OptimizeTuplesCtx(t.Context(), b, vths, toxs, tgt)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Feasible {
			t.Fatalf("%v infeasible at %v", b, tgt)
		}
		return r.EnergyJ
	}
	e22 := get(TupleBudget{2, 2}, target)
	e23 := get(TupleBudget{2, 3}, target)
	e21 := get(TupleBudget{2, 1}, target)
	const eps = 1 + 1e-9
	if e23 > e22*eps {
		t.Errorf("E(2,3)=%v should be <= E(2,2)=%v", e23, e22)
	}
	if e22 > e21*eps {
		t.Errorf("E(2,2)=%v should be <= E(2,1)=%v", e22, e21)
	}
	// "a single Tox and dual Vth process outperforms that with a single Vth
	// and dual Tox": compare where the AMAT constraint binds.
	tight := amatTightTarget(tl)
	e12t := get(TupleBudget{1, 2}, tight)
	e21t := get(TupleBudget{2, 1}, tight)
	if e12t >= e21t {
		t.Errorf("Vth knob: E(1Tox,2Vth)=%v should be < E(2Tox,1Vth)=%v at tight AMAT", e12t, e21t)
	}
	// And the paper's companion claim: dual-Tox/dual-Vth vs dual-Tox/triple-
	// Vth differ only marginally ("very small").
	if e23 < e22/1.15 {
		t.Errorf("E(2,3)=%v should be within ~15%% of E(2,2)=%v", e23, e22)
	}
}

func amatTightTarget(tl *TwoLevel) float64 {
	fast := uniformAMAT(tl, device.OP(0.20, 10))
	slow := uniformAMAT(tl, device.OP(0.50, 14))
	return fast + 0.22*(slow-fast)
}

func TestTupleCurveMonotone(t *testing.T) {
	// Looser AMAT budgets can only lower the optimal energy... until the
	// leakage-window effect kicks in; at minimum the curve must be finite
	// and feasible across the sweep.
	tl := systemForTest(t)
	vths, toxs := CoarseMenu()
	fast := uniformAMAT(tl, device.OP(0.20, 10))
	slow := uniformAMAT(tl, device.OP(0.50, 14))
	budgets := units.Linspace(fast*1.02, slow, 6)
	curve, err := tl.TupleCurveCtx(t.Context(), TupleBudget{2, 2}, vths, toxs, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != len(budgets) {
		t.Fatal("curve length")
	}
	feasible := 0
	for _, r := range curve {
		if r.Feasible {
			feasible++
			if math.IsInf(r.EnergyJ, 0) || r.EnergyJ <= 0 {
				t.Errorf("bad energy %v", r.EnergyJ)
			}
		}
	}
	if feasible < len(curve)-1 {
		t.Errorf("only %d/%d points feasible", feasible, len(curve))
	}
}

func TestGroupNames(t *testing.T) {
	want := []string{"L1-cell", "L1-periph", "L2-cell", "L2-periph"}
	for g := GroupID(0); g < GroupCount; g++ {
		if g.String() != want[g] {
			t.Errorf("group %d = %q", g, g.String())
		}
	}
	if GroupID(17).String() != "group(17)" {
		t.Error("out-of-range group name")
	}
}

func TestSystemAssignmentProjection(t *testing.T) {
	sa := SystemAssignment{
		device.OP(0.45, 13), device.OP(0.25, 10),
		device.OP(0.50, 14), device.OP(0.30, 11),
	}
	a1 := sa.L1()
	if a1[components.PartCellArray] != sa[GroupL1Cell] {
		t.Error("L1 cell projection")
	}
	if a1[components.PartDecoder] != sa[GroupL1Periph] {
		t.Error("L1 periphery projection")
	}
	a2 := sa.L2()
	if a2[components.PartCellArray] != sa[GroupL2Cell] || a2[components.PartDataDrivers] != sa[GroupL2Periph] {
		t.Error("L2 projection")
	}
	if sa.DistinctVths() != 4 || sa.DistinctToxs() != 4 {
		t.Error("distinct counting")
	}
}

func TestTupleOptimizerAgreesWithDirectObjective(t *testing.T) {
	// The inlined objective inside OptimizeTuplesCtx must match the amat.System
	// computation for the winning assignment.
	tl := systemForTest(t)
	vths, toxs := CoarseMenu()
	r, err := tl.OptimizeTuplesCtx(t.Context(), TupleBudget{2, 2}, vths, toxs, amatMidTarget(tl))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible {
		t.Fatal("infeasible")
	}
	want := tl.System(r.Assignment.L1(), r.Assignment.L2()).TotalEnergyJ()
	if !units.ApproxEqual(r.EnergyJ, want, 1e-6, 0) {
		t.Errorf("inlined objective %v != amat.System %v", r.EnergyJ, want)
	}
}
