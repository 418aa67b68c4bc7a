package exp

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cachecfg"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/work"
)

// TestOneDesignPerProcess pins the one design memo: a scenario point,
// experiments batches decoded from the wire at two scales, and
// core.SharedDesign all read one design per organization — the same
// netlists and the same fitted model.
func TestOneDesignPerProcess(t *testing.T) {
	pt := scenario.Config{Name: "shared", L1KB: 16, L2KB: 512, Workload: "tpcc",
		Accesses: 20_000, Fidelity: profile.FidelityAnalytical}
	if _, err := scenario.RunCtx(t.Context(), pt); err != nil {
		t.Fatal(err)
	}
	var envs []*Env
	for _, accesses := range []int{100_000, 120_000} {
		b, err := work.Unmarshal(WorkKind, json.RawMessage(fmt.Sprintf(
			`{"ids":["tab-fit"],"accesses":%d,"seed":1,"min_r2":0.97,"fidelity":"analytical"}`, accesses)))
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, b.(*Batch).env)
	}
	if envs[0] == envs[1] {
		t.Fatal("two scales decoded into one environment")
	}
	for _, cfg := range []cachecfg.Config{cachecfg.L1(16 * cachecfg.KB), cachecfg.L2(512 * cachecfg.KB)} {
		want, err := core.SharedDesign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range envs {
			got, err := e.design(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Model != want.Model || got.Cache != want.Cache {
				t.Errorf("%v: the Env of scale %d holds a design of its own", cfg, i)
			}
		}
	}
}

// TestEnvGatesTheSharedFit pins the Env's own gate on the shared fit: an
// Env whose MinR2 sits above a fit's R2 refuses with the model's text,
// through its design reads and through an experiment, while
// core.SharedDesign of the same organization still succeeds.
func TestEnvGatesTheSharedFit(t *testing.T) {
	e := NewQuickEnv()
	e.MinR2 = 0.9999
	const want = "exp: model for 16KB/32B/4-way: model: cell-array delay fit R2 0.9914 < 0.9999"
	if _, err := e.design(fig1Cache()); err == nil || err.Error() != want {
		t.Errorf("design: got %v, want %q", err, want)
	}
	exps, err := Select("tab-schemes", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunExperimentsCtx(t.Context(), exps); err == nil || !strings.HasSuffix(err.Error(), "exp: tab-schemes: "+want) {
		t.Errorf("experiment: got %v, want it to end %q", err, "exp: tab-schemes: "+want)
	}
	if _, err := core.SharedDesign(fig1Cache()); err != nil {
		t.Errorf("the shared design must not carry an Env's gate: %v", err)
	}
}
