package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/profile"
)

const validJSON = `{
  "name": "demo",
  "l1_kb": 16,
  "l2_kb": 512,
  "workload": "spec2000",
  "accesses": 60000,
  "tuple_budgets": [[2,2],[1,2]]
}`

// loadString parses a JSON scenario from a string.
func loadString(s string) (Config, error) { return Load(strings.NewReader(s)) }

func TestLoadValid(t *testing.T) {
	c, err := loadString(validJSON)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "demo" || c.L1KB != 16 || c.L2KB != 512 {
		t.Errorf("parsed config %+v", c)
	}
	// Defaults applied.
	if c.Scheme != 2 || c.Seed != 1 {
		t.Errorf("defaults not applied: %+v", c)
	}
}

func TestLoadRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":  `{"name":"x","l1_kb":16,"l2_kb":512,"workload":"tpcc","bogus":1}`,
		"missing name":   `{"l1_kb":16,"l2_kb":512,"workload":"tpcc"}`,
		"bad workload":   `{"name":"x","l1_kb":16,"l2_kb":512,"workload":"linpack"}`,
		"zero size":      `{"name":"x","l1_kb":0,"l2_kb":512,"workload":"tpcc"}`,
		"bad scheme":     `{"name":"x","l1_kb":16,"l2_kb":512,"workload":"tpcc","scheme":7}`,
		"bad tuple":      `{"name":"x","l1_kb":16,"l2_kb":512,"workload":"tpcc","tuple_budgets":[[0,2]]}`,
		"tox over menu":  `{"name":"x","l1_kb":16,"l2_kb":512,"workload":"tpcc","tuple_budgets":[[6,2]]}`,
		"vth over menu":  `{"name":"x","l1_kb":16,"l2_kb":512,"workload":"tpcc","tuple_budgets":[[2,9]]}`,
		"accesses cap":   `{"name":"x","l1_kb":16,"l2_kb":256,"workload":"tpcc","accesses":1099511627776,"fidelity":"analytical"}`,
		"malformed json": `{"name":`,
	}
	// Admission refuses what cannot run, at either fidelity: a size that
	// is no cachecfg organization, a size over MaxCacheKB, and negative
	// accesses.
	for _, fidelity := range []string{profile.FidelityTrace, profile.FidelityAnalytical} {
		for label, fields := range map[string]string{
			"l1 not a power of two": `"l1_kb":24,"l2_kb":512`,
			"l2 not a power of two": `"l1_kb":16,"l2_kb":3`,
			"l1 over the cap":       `"l1_kb":131072,"l2_kb":512`,
			"l2 over the cap":       `"l1_kb":16,"l2_kb":1048576`,
			"l2 overflowing bytes":  `"l1_kb":16,"l2_kb":9007199254740993`,
			"negative accesses":     `"l1_kb":16,"l2_kb":512,"accesses":-5`,
		} {
			cases[label+" at "+fidelity] = fmt.Sprintf(`{"name":"x",%s,"workload":"tpcc","fidelity":%q}`, fields, fidelity)
		}
	}
	for label, js := range cases {
		if _, err := loadString(js); err == nil {
			t.Errorf("%s accepted", label)
		}
	}
}

// TestSizeRuleBounds pins both ends of the size rule: 1 KB and
// MaxCacheKB pass at each level, and each refusal names its field.
func TestSizeRuleBounds(t *testing.T) {
	for _, kb := range []int{1, MaxCacheKB} {
		c := Config{Name: "x", L1KB: kb, L2KB: kb, Workload: "tpcc"}
		if err := c.Validate(); err != nil {
			t.Errorf("%d KB refused: %v", kb, err)
		}
	}
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{L1KB: 16, L2KB: 3}, "scenario: l2_kb 3: cachecfg: size, block and associativity must be powers of two: 3KB/64B/8-way"},
		{Config{L1KB: 2 * MaxCacheKB, L2KB: 512}, "scenario: cache sizes 131072/512 KB above the cap of 65536 KB"},
		{Config{L1KB: 16, L2KB: 512, Accesses: -5}, "scenario: accesses must not be negative, got -5"},
	} {
		tc.cfg.Name, tc.cfg.Workload = "x", "tpcc"
		if err := tc.cfg.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("%+v: got %v, want %q", tc.cfg, err, tc.want)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	c, err := loadString(validJSON)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(t.Context(), c)
	if err != nil {
		t.Fatal(err)
	}
	if res.M1 <= 0 || res.M1 >= 1 || res.M2 <= 0 || res.M2 > 1 {
		t.Errorf("miss rates %v/%v", res.M1, res.M2)
	}
	if !res.L2Optimization.Feasible {
		t.Fatal("auto-budget L2 optimization should be feasible")
	}
	if res.L2Optimization.LeakageMW <= 0 || res.L2Optimization.AMATPS <= 0 {
		t.Errorf("bad optimization metrics: %+v", res.L2Optimization)
	}
	if res.L2Optimization.AMATPS > res.AMATBudgetPS*(1+1e-9) {
		t.Error("AMAT budget violated")
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("want 2 tuple outcomes, got %d", len(res.Tuples))
	}
	for _, tu := range res.Tuples {
		if !tu.Feasible {
			t.Errorf("tuple %s infeasible at the mid budget", tu.Budget)
		}
	}

	// The rendered result is valid JSON and round-trips.
	out, err := res.NDJSONLine()
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatalf("rendered result is not valid JSON: %v", err)
	}
	if back.Name != res.Name || back.L2Optimization.LeakageMW != res.L2Optimization.LeakageMW {
		t.Error("render round trip lost data")
	}
}

func TestRunAverageWorkload(t *testing.T) {
	c, err := loadString(`{"name":"avg","l1_kb":16,"l2_kb":512,"workload":"average","accesses":30000}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(t.Context(), c)
	if err != nil {
		t.Fatal(err)
	}
	if res.M1 <= 0 {
		t.Error("average workload produced no misses")
	}
}

func TestRunExplicitBudget(t *testing.T) {
	// An absurdly tight explicit budget must be reported infeasible, not
	// silently replaced.
	c, err := loadString(`{"name":"tight","l1_kb":16,"l2_kb":512,"workload":"spec2000","accesses":30000,"amat_budget_ps":100}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(t.Context(), c)
	if err != nil {
		t.Fatal(err)
	}
	if res.L2Optimization.Feasible {
		t.Error("100ps AMAT should be infeasible")
	}
	if res.AMATBudgetPS != 100 {
		t.Errorf("explicit budget overridden: %v", res.AMATBudgetPS)
	}
}

func TestValidateDirect(t *testing.T) {
	good := Config{Name: "x", L1KB: 16, L2KB: 512, Workload: "tpcc"}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	good.Accesses = profile.MaxAccesses
	if err := good.Validate(); err != nil {
		t.Errorf("config at the accesses cap rejected: %v", err)
	}
	over := good
	over.Accesses++
	if err := over.Validate(); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("config over the accesses cap: got %v, want a cap error", err)
	}
	if !strings.Contains(validJSON, "tuple_budgets") {
		t.Error("test fixture drifted")
	}
}
