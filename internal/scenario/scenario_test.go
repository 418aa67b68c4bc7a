package scenario

import (
	"encoding/json"
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

func TestLoadValid(t *testing.T) {
	c, err := LoadString(validJSON)
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
	for label, js := range cases {
		if _, err := LoadString(js); err == nil {
			t.Errorf("%s accepted", label)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	c, err := LoadString(validJSON)
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
	c, err := LoadString(`{"name":"avg","l1_kb":16,"l2_kb":512,"workload":"average","accesses":30000}`)
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
	c, err := LoadString(`{"name":"tight","l1_kb":16,"l2_kb":512,"workload":"spec2000","accesses":30000,"amat_budget_ps":100}`)
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
