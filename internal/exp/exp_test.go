package exp

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The experiments share one quick environment: miss matrices and fitted
// models are built once for the whole package test run.
var (
	envOnce sync.Once
	testEnv *Env
)

func env(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() { testEnv = NewQuickEnv() })
	return testEnv
}

// parseMW extracts a float from a table cell, returning NaN for dashes and
// "infeasible".
func parseCell(s string) float64 {
	s = strings.TrimSpace(s)
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return f
}

func seriesByName(f Figure, name string) *Series {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i]
		}
	}
	return nil
}

func span(xs []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return hi - lo
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func TestFig1ReproducesPaperShapes(t *testing.T) {
	fig, err := env(t).Fig1(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("Figure 1 needs 4 slices, got %d", len(fig.Series))
	}
	tox10 := seriesByName(fig, "Tox=10A")
	tox14 := seriesByName(fig, "Tox=14A")
	vth02 := seriesByName(fig, "Vth=200mV")
	vth04 := seriesByName(fig, "Vth=400mV")
	for _, s := range []*Series{tox10, tox14, vth02, vth04} {
		if s == nil || len(s.X) < 10 {
			t.Fatal("missing or short Figure 1 series")
		}
	}

	// Paper: "the delay doesn't show as wide a range when Vth is fixed as
	// when Tox is fixed."
	if span(vth02.X) >= span(tox10.X) {
		t.Errorf("Vth-fixed delay span %v should be < Tox-fixed span %v", span(vth02.X), span(tox10.X))
	}
	if span(vth04.X) >= span(tox14.X) {
		t.Errorf("Vth=0.4 delay span %v should be < Tox=14 span %v", span(vth04.X), span(tox14.X))
	}

	// Gate-leakage floor: the thin-oxide slice cannot get below a floor far
	// above the thick-oxide slice's reach.
	if minOf(tox10.Y) < 10*minOf(tox14.Y) {
		t.Errorf("Tox=10A floor %v should be >> Tox=14A floor %v", minOf(tox10.Y), minOf(tox14.Y))
	}

	// Leakage decreases monotonically along every slice (knobs only go up).
	for _, s := range []*Series{tox10, tox14, vth02, vth04} {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] >= s.Y[i-1] {
				t.Errorf("series %s: leakage not strictly decreasing at %d", s.Name, i)
				break
			}
		}
	}

	// Magnitudes: a 16KB cache in the mW decade, access times in hundreds of ps.
	if tox10.Y[0] < 1 || tox10.Y[0] > 100 {
		t.Errorf("fast-corner leakage %v mW out of range", tox10.Y[0])
	}
	if tox10.X[0] < 200 || tox10.X[0] > 1500 {
		t.Errorf("fast-corner access %v ps out of range", tox10.X[0])
	}
}

func TestSchemeComparisonOrdering(t *testing.T) {
	tab, err := env(t).SchemeComparison(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 5 {
		t.Fatalf("too few budgets: %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		s1 := parseCell(row[1])
		s2 := parseCell(row[2])
		s3 := parseCell(row[3])
		if math.IsNaN(s1) || math.IsNaN(s2) || math.IsNaN(s3) {
			t.Fatalf("unparseable row %v", row)
		}
		const eps = 1e-9
		if !(s1 <= s2*(1+1e-3) && s2 <= s3*(1+eps)) {
			t.Errorf("scheme ordering violated at budget %s: I=%v II=%v III=%v", row[0], s1, s2, s3)
		}
	}
}

func TestSchemeAssignmentsStructure(t *testing.T) {
	tab, err := env(t).SchemeAssignments(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		cellVth, cellTox := parseCell(row[1]), parseCell(row[2])
		periVth, periTox := parseCell(row[3]), parseCell(row[4])
		if cellVth < periVth {
			t.Errorf("budget %s: cell Vth %v < periphery %v", row[0], cellVth, periVth)
		}
		if cellTox < periTox {
			t.Errorf("budget %s: cell Tox %v < periphery %v", row[0], cellTox, periTox)
		}
	}
}

func TestKnobSensitivityTable(t *testing.T) {
	tab, err := env(t).KnobSensitivity(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	// First four rows are the slices: delay spans of Vth-fixed rows (3,4)
	// must be smaller than Tox-fixed rows (1,2).
	toxFixedSpan := math.Min(parseCell(tab.Rows[0][1]), parseCell(tab.Rows[1][1]))
	vthFixedSpan := math.Max(parseCell(tab.Rows[2][1]), parseCell(tab.Rows[3][1]))
	if vthFixedSpan >= toxFixedSpan {
		t.Errorf("Vth-fixed delay spans (%v) should be below Tox-fixed spans (%v)",
			vthFixedSpan, toxFixedSpan)
	}
	// Strategy rows: pinning Tox at 14A (paper's recommendation) must beat
	// pinning Vth, and be close to the both-free optimum.
	var tox14, vthPinned, bothFree float64 = math.NaN(), math.NaN(), math.NaN()
	for _, row := range tab.Rows {
		val := parseCell(strings.TrimSuffix(row[2], " mW"))
		switch {
		case strings.Contains(row[0], "Tox pinned 14A"):
			tox14 = val
		case strings.Contains(row[0], "Vth pinned"):
			vthPinned = val
		case strings.Contains(row[0], "both free"):
			bothFree = val
		}
	}
	if math.IsNaN(tox14) || math.IsNaN(vthPinned) || math.IsNaN(bothFree) {
		t.Fatalf("strategy rows missing: %v", tab.Rows)
	}
	if tox14 >= vthPinned {
		t.Errorf("Tox-pinned-high strategy (%v mW) should beat Vth-pinned (%v mW)", tox14, vthPinned)
	}
	if tox14 > 2*bothFree {
		t.Errorf("Tox-pinned-high (%v mW) should be close to the joint optimum (%v mW)", tox14, bothFree)
	}
}

func TestMissRateTable(t *testing.T) {
	tab, err := env(t).MissRateTable(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 { // three suites + average
		t.Fatalf("want 4 rows, got %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		l1s := []float64{parseCell(row[1]), parseCell(row[2]), parseCell(row[3])}
		if !(l1s[0] >= l1s[1] && l1s[1] >= l1s[2]) {
			t.Errorf("%s: L1 miss rates not decreasing: %v", row[0], l1s)
		}
		l2s := []float64{parseCell(row[4]), parseCell(row[5]), parseCell(row[6])}
		if !(l2s[0] >= l2s[1] && l2s[1] >= l2s[2]-1e-9) {
			t.Errorf("%s: L2 miss rates not decreasing: %v", row[0], l2s)
		}
	}
}

// sweepLeaks returns per-size leakage in row order (infeasible rows = +Inf).
func sweepLeaks(tab Table) (sizes []string, leaks []float64) {
	for _, row := range tab.Rows {
		sizes = append(sizes, row[0])
		v := parseCell(row[2])
		if math.IsNaN(v) {
			v = math.Inf(1)
		}
		leaks = append(leaks, v)
	}
	return
}

func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

func TestL2SingleSweepShape(t *testing.T) {
	tab, err := env(t).L2SizeSweep(t.Context(), false)
	if err != nil {
		t.Fatal(err)
	}
	sizes, leaks := sweepLeaks(tab)
	// Paper: under equal AMAT a bigger L2 leaks less than the smallest
	// viable one — the optimum is not the smallest size...
	smallestFeasible := -1
	for i, l := range leaks {
		if !math.IsInf(l, 1) {
			smallestFeasible = i
			break
		}
	}
	if smallestFeasible < 0 {
		t.Fatal("no feasible L2 size")
	}
	best := argmin(leaks)
	if best < smallestFeasible {
		t.Fatalf("impossible argmin ordering")
	}
	if best == smallestFeasible && leaks[smallestFeasible+1] < leaks[smallestFeasible] {
		t.Errorf("bigger L2 should win: %v -> %v", sizes, leaks)
	}
	// ...but the largest is not the best (diminishing returns).
	if best == len(leaks)-1 {
		t.Errorf("the largest L2 should not be the leakage optimum: %v -> %v", sizes, leaks)
	}
}

func TestL2SplitSweepShape(t *testing.T) {
	tab, err := env(t).L2SizeSweep(t.Context(), true)
	if err != nil {
		t.Fatal(err)
	}
	// In every feasible split row, the cells are at least as conservative as
	// the periphery on both knobs (paper's structural finding).
	feasible := 0
	for _, row := range tab.Rows {
		if strings.Contains(row[2], "infeasible") {
			continue
		}
		feasible++
		cell, peri := row[4], row[5]
		cv, ct := parseOP(cell)
		pv, pt := parseOP(peri)
		if cv < pv || ct < pt-1e-9 {
			t.Errorf("%s: cells (%s) less conservative than periphery (%s)", row[0], cell, peri)
		}
	}
	if feasible < 2 {
		t.Fatalf("too few feasible split rows: %d", feasible)
	}
}

// parseOP extracts Vth and Tox from "(Vth=0.44V, Tox=14.0A)".
func parseOP(s string) (vth, tox float64) {
	s = strings.Trim(s, "()")
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		switch {
		case strings.HasPrefix(part, "Vth="):
			vth = parseCell(strings.TrimSuffix(strings.TrimPrefix(part, "Vth="), "V"))
		case strings.HasPrefix(part, "Tox="):
			tox = parseCell(strings.TrimSuffix(strings.TrimPrefix(part, "Tox="), "A"))
		}
	}
	return
}

func TestSplitBeatsGrowingTheL2(t *testing.T) {
	// The paper's head-to-head at one common AMAT target: splitting the
	// knobs inside the L2 never hurts, strictly helps somewhere, and shifts
	// the optimal L2 size down (smaller L2 + aggressive periphery instead
	// of growing the cache).
	single, err := env(t).l2SizeSweepAt(t.Context(), 1.03, false)
	if err != nil {
		t.Fatal(err)
	}
	split, err := env(t).l2SizeSweepAt(t.Context(), 1.03, true)
	if err != nil {
		t.Fatal(err)
	}
	_, singleLeaks := sweepLeaks(single)
	sizes, splitLeaks := sweepLeaks(split)
	strict := false
	for i := range splitLeaks {
		if splitLeaks[i] > singleLeaks[i]*(1+1e-9) {
			t.Errorf("%s: split (%v) worse than single (%v)", sizes[i], splitLeaks[i], singleLeaks[i])
		}
		if !math.IsInf(splitLeaks[i], 1) && splitLeaks[i] < singleLeaks[i]*(1-1e-6) {
			strict = true
		}
	}
	if !strict {
		t.Error("splitting should strictly improve at least one L2 size")
	}
	if argmin(splitLeaks) > argmin(singleLeaks) {
		t.Errorf("split optimum size should not grow: single argmin %v, split argmin %v",
			argmin(singleLeaks), argmin(splitLeaks))
	}
}

func TestSplitShiftsOptimumSmaller(t *testing.T) {
	// Published experiment margins: single at 1.002, split at 1.03. The
	// split experiment's optimal L2 size must be no larger than the single
	// experiment's (paper's abstract: with split pairs, "smaller L2's will
	// yield less total leakage").
	singleTab, err := env(t).L2SizeSweep(t.Context(), false)
	if err != nil {
		t.Fatal(err)
	}
	splitTab, err := env(t).L2SizeSweep(t.Context(), true)
	if err != nil {
		t.Fatal(err)
	}
	_, singleLeaks := sweepLeaks(singleTab)
	_, splitLeaks := sweepLeaks(splitTab)
	if argmin(splitLeaks) > argmin(singleLeaks) {
		t.Errorf("split experiment optimum (index %d) larger than single experiment optimum (index %d)",
			argmin(splitLeaks), argmin(singleLeaks))
	}
}

func TestL1SweepSmallIsBest(t *testing.T) {
	tab, err := env(t).L1Sweep(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	leaks := map[string]float64{}
	for _, row := range tab.Rows {
		leaks[row[0]] = parseCell(row[2])
	}
	if !(leaks["4KB"] <= leaks["16KB"] && leaks["16KB"] <= leaks["64KB"]) {
		t.Errorf("total leakage should grow with L1 size: %v", leaks)
	}
	found := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "minimum-leakage L1 size: 4KB") {
			found = true
		}
	}
	if !found {
		t.Errorf("4KB should be the minimum-leakage L1: notes %v", tab.Notes)
	}
}

func TestFig2ReproducesPaperOrdering(t *testing.T) {
	fig, err := env(t).Fig2(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 5 {
		t.Fatalf("Figure 2 needs 5 series, got %d", len(fig.Series))
	}
	get := func(name string) *Series {
		s := seriesByName(fig, name)
		if s == nil || len(s.X) < 3 {
			t.Fatalf("missing series %q", name)
		}
		return s
	}
	s22 := get("2 Tox + 2 Vth")
	s23 := get("2 Tox + 3 Vth")
	s21 := get("2 Tox + 1 Vth")
	s12 := get("1 Tox + 2 Vth")

	// At the tight (left) end: (2,3) <= (2,2) and both far below the
	// single-value budgets; (1,2) <= (2,1).
	if s23.Y[0] > s22.Y[0]*(1+1e-6) {
		t.Errorf("left edge: E(2,3)=%v should be <= E(2,2)=%v", s23.Y[0], s22.Y[0])
	}
	if s22.Y[0] > 0.8*s21.Y[0] {
		t.Errorf("left edge: E(2,2)=%v should be well below E(2,1)=%v", s22.Y[0], s21.Y[0])
	}
	if s12.Y[0] > s21.Y[0]*(1+1e-6) {
		t.Errorf("left edge: E(1Tox,2Vth)=%v should be <= E(2Tox,1Vth)=%v", s12.Y[0], s21.Y[0])
	}
	// (1,2) never worse than (2,1) at comparable AMAT points.
	for i := range s12.Y {
		if i < len(s21.Y) && s12.Y[i] > s21.Y[i]*1.02 {
			t.Errorf("point %d: E(1,2)=%v above E(2,1)=%v", i, s12.Y[i], s21.Y[i])
		}
	}
	// (2,2) within 10% of (2,3) everywhere ("difference ... is very small").
	for i := range s22.Y {
		if i < len(s23.Y) && s22.Y[i] > s23.Y[i]*1.10 {
			t.Errorf("point %d: E(2,2)=%v more than 10%% above E(2,3)=%v", i, s22.Y[i], s23.Y[i])
		}
	}
	// Curves converge to the right: the spread at the loose end is far
	// smaller than at the tight end.
	last := len(s21.Y) - 1
	tightSpread := s21.Y[0] - s23.Y[0]
	looseSpread := s21.Y[last] - s23.Y[min(last, len(s23.Y)-1)]
	if looseSpread > tightSpread/2 {
		t.Errorf("curves should converge: tight spread %v, loose spread %v", tightSpread, looseSpread)
	}
	// Energy magnitudes in Figure 2's regime (tens to hundreds of pJ).
	if s23.Y[0] < 20 || s21.Y[0] > 5000 {
		t.Errorf("energies out of regime: best %v pJ, worst %v pJ", s23.Y[0], s21.Y[0])
	}
}

func TestFig2SummaryRenders(t *testing.T) {
	tab, err := env(t).Fig2Summary(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("want 5 budgets, got %d", len(tab.Rows))
	}
	if out := tab.ASCII(); !strings.Contains(out, "2 Tox + 3 Vth") {
		t.Error("summary missing budgets")
	}
}

func TestBaselineDominance(t *testing.T) {
	tab, err := env(t).BaselineComparison(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		both := parseCell(row[1])
		vthOnly := parseCell(row[2])
		toxOnly := parseCell(row[3])
		if math.IsNaN(both) {
			continue
		}
		if !math.IsNaN(vthOnly) && both > vthOnly*(1+1e-9) {
			t.Errorf("budget %s: joint (%v) worse than Vth-only (%v)", row[0], both, vthOnly)
		}
		if !math.IsNaN(vthOnly) && !math.IsNaN(toxOnly) && vthOnly > toxOnly*(1+1e-9) {
			t.Errorf("budget %s: Vth-only (%v) worse than Tox-only (%v)", row[0], vthOnly, toxOnly)
		}
	}
}

func TestFitQualityGate(t *testing.T) {
	tab, err := env(t).FitQuality(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		for col := 2; col <= 4; col++ {
			if r2 := parseCell(row[col]); r2 < 0.95 {
				t.Errorf("%s/%s column %d R2 = %v", row[0], row[1], col, r2)
			}
		}
	}
}

func TestAllArtifacts(t *testing.T) {
	arts, err := env(t).RunExperimentsCtx(t.Context(), Experiments())
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 12 {
		t.Fatalf("want 12 artifacts, got %d", len(arts))
	}
	seen := map[string]bool{}
	for _, a := range arts {
		if seen[a.ID] {
			t.Errorf("duplicate artifact %s", a.ID)
		}
		seen[a.ID] = true
		if a.Render() == "" || a.CSV() == "" {
			t.Errorf("artifact %s renders empty", a.ID)
		}
	}
	for _, want := range []string{"fig1", "fig2", "tab-schemes", "tab-l2-single", "tab-l2-split", "tab-l1"} {
		if !seen[want] {
			t.Errorf("missing artifact %s", want)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
