package sim

import (
	"testing"

	"repro/internal/cachecfg"
	"repro/internal/trace"
)

// quickSuite returns a downsized workload for fast matrix tests.
func quickSuite(seed int64) trace.Params {
	p := trace.SPEC2000(seed)
	p.FootprintBytes = 4 << 20
	return p
}

func TestBuildMissMatrixShape(t *testing.T) {
	l1s := []int{4 * cachecfg.KB, 16 * cachecfg.KB}
	l2s := []int{256 * cachecfg.KB, 1 * cachecfg.MB}
	m, err := BuildMissMatrixCtx(t.Context(), quickSuite(1), l1s, l2s, 60000)
	if err != nil {
		t.Fatal(err)
	}
	for _, l1 := range l1s {
		if _, ok := m.L1Local[l1]; !ok {
			t.Errorf("missing L1 entry for %d", l1)
		}
		for _, l2 := range l2s {
			if _, ok := m.L2Local[l1][l2]; !ok {
				t.Errorf("missing L2 entry for %d/%d", l1, l2)
			}
		}
	}
}

func TestBuildMissMatrixErrors(t *testing.T) {
	if _, err := BuildMissMatrixCtx(t.Context(), quickSuite(1), nil, []int{1 << 20}, 100); err == nil {
		t.Error("empty L1 list accepted")
	}
	if _, err := BuildMissMatrixCtx(t.Context(), quickSuite(1), []int{4096}, []int{1 << 20}, 0); err == nil {
		t.Error("zero access count accepted")
	}
	if _, err := BuildMissMatrixCtx(t.Context(), trace.Params{}, []int{4096}, []int{1 << 20}, 100); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestMissRatesDecreaseWithSize(t *testing.T) {
	l1s := cachecfg.L1Sizes()
	l2s := []int{256 * cachecfg.KB, 512 * cachecfg.KB, 1 * cachecfg.MB, 2 * cachecfg.MB}
	m, err := BuildMissMatrixCtx(t.Context(), quickSuite(2), l1s, l2s, 120000)
	if err != nil {
		t.Fatal(err)
	}
	// L1 local miss rate decreases (weakly) with L1 size.
	for i := 1; i < len(l1s); i++ {
		if m.L1Local[l1s[i]] > m.L1Local[l1s[i-1]]+0.005 {
			t.Errorf("L1 miss rate rose from %d (%v) to %d (%v)",
				l1s[i-1], m.L1Local[l1s[i-1]], l1s[i], m.L1Local[l1s[i]])
		}
	}
	// L2 local miss rate decreases (weakly) with L2 size at fixed L1.
	l1 := 16 * cachecfg.KB
	for i := 1; i < len(l2s); i++ {
		if m.L2Local[l1][l2s[i]] > m.L2Local[l1][l2s[i-1]]+0.01 {
			t.Errorf("L2 miss rate rose from %d (%v) to %d (%v)",
				l2s[i-1], m.L2Local[l1][l2s[i-1]], l2s[i], m.L2Local[l1][l2s[i]])
		}
	}
}

func TestPaperCalibrationProperties(t *testing.T) {
	// Section 5: "Local L1 cache miss rates are already very low and they do
	// not vary much amongst the L1 caches ranging from 4K to 64K".
	m, err := BuildMissMatrixCtx(t.Context(), quickSuite(3), cachecfg.L1Sizes(),
		[]int{512 * cachecfg.KB}, 150000)
	if err != nil {
		t.Fatal(err)
	}
	for _, l1 := range cachecfg.L1Sizes() {
		mr := m.L1Local[l1]
		if mr <= 0.001 || mr > 0.25 {
			t.Errorf("L1 %dKB local miss rate %v outside the plausible low band", l1/1024, mr)
		}
	}
	spread := m.L1Local[4*cachecfg.KB] - m.L1Local[64*cachecfg.KB]
	if spread < 0 {
		t.Errorf("miss rate should not grow with L1 size (spread %v)", spread)
	}
	if spread > 0.15 {
		t.Errorf("L1 miss-rate spread %v too wide — paper expects little variation", spread)
	}
	// L2 should still see double-digit local miss rates at 512KB for a 4MB
	// footprint workload.
	if m.L2Local[16*cachecfg.KB][512*cachecfg.KB] <= 0.01 {
		t.Error("L2 local miss rate implausibly low")
	}
}

func TestWritebackRatePositive(t *testing.T) {
	m, err := BuildMissMatrixCtx(t.Context(), quickSuite(4), []int{16 * cachecfg.KB},
		[]int{512 * cachecfg.KB}, 60000)
	if err != nil {
		t.Fatal(err)
	}
	wb := m.WritebackPerAccess[16*cachecfg.KB]
	if wb <= 0 || wb > m.L1Local[16*cachecfg.KB] {
		t.Errorf("writeback rate %v outside (0, miss rate]", wb)
	}
}

func TestAverageMatrices(t *testing.T) {
	l1s := []int{16 * cachecfg.KB}
	l2s := []int{512 * cachecfg.KB}
	a, err := BuildMissMatrixCtx(t.Context(), quickSuite(5), l1s, l2s, 40000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildMissMatrixCtx(t.Context(), quickSuite(6), l1s, l2s, 40000)
	if err != nil {
		t.Fatal(err)
	}
	avg, err := Average([]*MissMatrix{a, b})
	if err != nil {
		t.Fatal(err)
	}
	want := (a.L1Local[l1s[0]] + b.L1Local[l1s[0]]) / 2
	if got := avg.L1Local[l1s[0]]; got != want {
		t.Errorf("averaged L1 miss rate = %v, want %v", got, want)
	}
	want = (a.L2Local[l1s[0]][l2s[0]] + b.L2Local[l1s[0]][l2s[0]]) / 2
	if got := avg.L2Local[l1s[0]][l2s[0]]; got != want {
		t.Errorf("averaged L2 miss rate = %v, want %v", got, want)
	}
}

func TestAverageErrors(t *testing.T) {
	if _, err := Average(nil); err == nil {
		t.Error("empty average accepted")
	}
}

func TestBuildSuiteMatrices(t *testing.T) {
	suites := []trace.Params{quickSuite(7)}
	ms, err := BuildSuiteMatricesCtx(t.Context(), suites, []int{16 * cachecfg.KB}, []int{512 * cachecfg.KB}, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Workload != "spec2000" {
		t.Errorf("unexpected result: %+v", ms)
	}
}
