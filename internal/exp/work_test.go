package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sweep"
	"repro/internal/work"
)

// TestNewBatchResolvesRegistry pins construction: unknown IDs fail, known
// ones resolve in input order.
func TestNewBatchResolvesRegistry(t *testing.T) {
	if _, err := NewBatch([]string{"fig1", "no-such-artifact"}, NewEnv()); err == nil ||
		!strings.Contains(err.Error(), "no-such-artifact") {
		t.Fatalf("unknown id must fail, got %v", err)
	}
	if _, err := NewBatch(nil, NewEnv()); err == nil {
		t.Fatal("empty id list must fail")
	}
	if _, err := NewBatch([]string{"fig1"}, nil); err == nil {
		t.Fatal("a batch without an environment must fail")
	}
	b, err := NewBatch([]string{"fig2", "fig1"}, NewEnv())
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 || b.Kind() != WorkKind {
		t.Fatalf("batch = %+v", b)
	}
	if ids := b.ids; ids[0] != "fig2" || ids[1] != "fig1" {
		t.Fatalf("ids = %v, want input order preserved", ids)
	}
}

// TestWorkBatchHashPinsIDs checks the content hash keys on the exact ID
// sequence — the resume-refusal property.
func TestWorkBatchHashPinsIDs(t *testing.T) {
	hash := func(ids ...string) string {
		t.Helper()
		b, err := NewBatch(ids, NewEnv())
		if err != nil {
			t.Fatal(err)
		}
		h, err := b.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if hash("fig1", "fig2") != hash("fig1", "fig2") {
		t.Error("equal selections must hash identically")
	}
	if hash("fig1", "fig2") == hash("fig2", "fig1") {
		t.Error("reordered selections must hash differently")
	}
	if hash("fig1") == hash("fig1", "fig2") {
		t.Error("different selections must hash differently")
	}
}

// TestWorkBatchHashPinsEnvScale checks the hash also covers the
// environment knobs that change result bytes: resuming the same IDs at a
// different simulation scale must look like a different batch.
func TestWorkBatchHashPinsEnvScale(t *testing.T) {
	hash := func(env *Env) string {
		t.Helper()
		b, err := NewBatch([]string{"fig1"}, env)
		if err != nil {
			t.Fatal(err)
		}
		h, err := b.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	full, quick := NewEnv(), NewQuickEnv()
	if hash(full) == hash(quick) {
		t.Error("different Accesses must hash differently")
	}
	reseeded := NewEnv()
	reseeded.Seed = 99
	if hash(full) == hash(reseeded) {
		t.Error("different Seed must hash differently")
	}
	if hash(NewEnv()) != hash(NewEnv()) {
		t.Error("equal environments must hash identically")
	}
}

// TestWorkBatchWireRoundTrip checks MarshalRange → registry Unmarshal
// rebuilds the sub-batch the unit's range describes, at the batch's scale.
func TestWorkBatchWireRoundTrip(t *testing.T) {
	env := NewQuickEnv()
	env.Fidelity = "analytical"
	b, err := NewBatch([]string{"fig1", "fig2", "tab-l1"}, env)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := b.MarshalRange(sweep.Range{Lo: 1, Hi: 3})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := work.Unmarshal(WorkKind, payload)
	if err != nil {
		t.Fatal(err)
	}
	eb, ok := sub.(*Batch)
	if !ok {
		t.Fatalf("decoded batch is %T", sub)
	}
	if ids := eb.ids; len(ids) != 2 || ids[0] != "fig2" || ids[1] != "tab-l1" {
		t.Fatalf("decoded ids = %v", ids)
	}
	if got, want := ScaleOf(eb.env), ScaleOf(env); got != want {
		t.Errorf("decoded scale = %+v, want %+v", got, want)
	}
}

// TestWirePayloadScale pins the decoder's scale handling: a payload
// without a scale (the form written before units carried one), a
// non-positive trace length, one above profile.MaxAccesses and an unknown
// fidelity are refused; every unit decoded at one scale shares one
// environment; and a process that decodes many scales holds the
// environments of only the last maxWireEnvs.
func TestWirePayloadScale(t *testing.T) {
	for _, payload := range []string{
		`{"ids":["fig1"]}`,
		`{"ids":["fig1"],"accesses":-5,"seed":1,"min_r2":0.97}`,
		`{"ids":["fig1"],"accesses":1099511627776,"seed":1,"min_r2":0.97,"fidelity":"analytical"}`,
		`{"ids":["fig1"],"accesses":400000,"seed":1,"min_r2":0.97,"fidelity":"clairvoyant"}`,
		`{"ids":["fig1"],"accesses":400000,"seed":1,"min_r2":0.97,"workers":4}`,
	} {
		if _, err := work.Unmarshal(WorkKind, json.RawMessage(payload)); err == nil {
			t.Errorf("payload %s accepted", payload)
		}
	}

	envOf := func(payload string) *Env {
		t.Helper()
		b, err := work.Unmarshal(WorkKind, json.RawMessage(payload))
		if err != nil {
			t.Fatal(err)
		}
		return b.(*Batch).env
	}
	e1 := envOf(`{"ids":["fig1"],"accesses":123456,"seed":3,"min_r2":0.97}`)
	e2 := envOf(`{"ids":["tab-l1","fig2"],"accesses":123456,"seed":3,"min_r2":0.97}`)
	e3 := envOf(`{"ids":["fig1"],"accesses":123456,"seed":4,"min_r2":0.97}`)
	if e1 != e2 {
		t.Error("units at one scale must share one environment")
	}
	if e1 == e3 {
		t.Error("units at different scales must not share an environment")
	}
	if want := (Scale{Accesses: 123456, Seed: 3, MinR2: 0.97}); ScaleOf(e1) != want {
		t.Errorf("decoded environment scale = %+v, want %+v", ScaleOf(e1), want)
	}

	for seed := 1000; seed < 1100; seed++ {
		envOf(fmt.Sprintf(`{"ids":["fig1"],"accesses":123456,"seed":%d,"min_r2":0.97}`, seed))
	}
	wireEnvs.Lock()
	held := len(wireEnvs.envs)
	wireEnvs.Unlock()
	if held > maxWireEnvs {
		t.Errorf("decoding 100 scales left %d environments held, want at most %d", held, maxWireEnvs)
	}
	if envOf(`{"ids":["fig1"],"accesses":123456,"seed":3,"min_r2":0.97}`) == e1 {
		t.Error("the environment of a scale 100 scales back was never evicted")
	}
	if envOf(`{"ids":["fig1"],"accesses":123456,"seed":5,"min_r2":0.97}`) != envOf(`{"ids":["fig2"],"accesses":123456,"seed":5,"min_r2":0.97}`) {
		t.Error("consecutive units at one scale must share one environment")
	}

	// Concurrent decodes at two fresh scales share one environment each.
	envs, err := sweep.MapCtx(t.Context(), 16, 8, func(_ context.Context, i int) (*Env, error) {
		b, err := work.Unmarshal(WorkKind, json.RawMessage(fmt.Sprintf(`{"ids":["fig1"],"accesses":123456,"seed":%d,"min_r2":0.97}`, 7+i%2)))
		if err != nil {
			return nil, err
		}
		return b.(*Batch).env, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range envs {
		if e != envs[i%2] {
			t.Fatalf("concurrent unit %d got its own environment", i)
		}
	}
}

// TestDescribeEnvCarriesScale checks a unit's wire payload is exactly the
// IDs plus the batch's scale.
func TestDescribeEnvCarriesScale(t *testing.T) {
	env := NewQuickEnv()
	env.Seed = 7
	b, err := NewBatch([]string{"fig1", "fig2"}, env)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := b.MarshalRange(sweep.Range{Lo: 1, Hi: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"ids":["fig2"],"accesses":400000,"seed":7,"min_r2":0.97}`
	if string(payload) != want {
		t.Errorf("MarshalRange = %s, want %s", payload, want)
	}
}

// TestNewEnvOutscalesQuickEnv pins the two environment presets apart: the
// production environment simulates more accesses than the quick one.
func TestNewEnvOutscalesQuickEnv(t *testing.T) {
	if NewEnv().Accesses <= NewQuickEnv().Accesses {
		t.Error("production env should simulate more accesses than quick env")
	}
}
