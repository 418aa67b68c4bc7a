package grid

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cachecfg"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/work"
)

// collidingSpec is a grid Validate admits but Expand refuses: its
// adjacent placeholders render points 0 (1,64) and 3 (16,4) both as
// "g164".
const collidingSpec = `{"grid":{"name":"g{l1_kb}{l2_kb}","axes":{"l1_kb":[1,16],"l2_kb":[64,4]},"base":{"workload":"tpcc"}}}`

// configOf returns item i's config of a batch LoadWork built.
func configOf(b work.Batch, i int) scenario.Config {
	if gb, ok := b.(*Batch); ok {
		return gb.ConfigAt(i)
	}
	return b.(scenario.Batch).Scenarios[i]
}

// TestLoadWork pins the one document rule: what each document kind
// resolves to, and how the -fidelity default fills it.
func TestLoadWork(t *testing.T) {
	const (
		single       = `{"name":"solo","l1_kb":16,"l2_kb":256,"workload":"tpcc"}`
		batch        = `{"scenarios":[{"name":"a","l1_kb":16,"l2_kb":256,"workload":"tpcc"},{"name":"b","l1_kb":32,"l2_kb":256,"workload":"tpcc","fidelity":"trace"}]}`
		traceBase    = `{"grid":{"axes":{"l1_kb":[16,32]},"base":{"l2_kb":256,"workload":"tpcc","fidelity":"trace"}}}`
		fidelityAxis = `{"grid":{"name":"g-{fidelity}","axes":{"fidelity":["trace","analytical"]},"base":{"l1_kb":16,"l2_kb":256,"workload":"tpcc"}}}`
		an           = profile.FidelityAnalytical
	)
	for _, tc := range []struct {
		name, doc, fidelity string
		wantKind            string
		wantSingle          bool
		wantFids            []string // every item's config fidelity
		wantErr             string
	}{
		{"single", single, "", scenario.JournalKind, true, []string{""}, ""},
		{"single with fidelity", single, an, scenario.JournalKind, true, []string{an}, ""},
		{"batch", batch, "", scenario.JournalKind, false, []string{"", "trace"}, ""},
		{"batch with fidelity", batch, an, scenario.JournalKind, false, []string{an, "trace"}, ""},
		{"grid", tinySpec, "", WorkKind, false, []string{"", "", "", ""}, ""},
		{"grid with fidelity", tinySpec, an, WorkKind, false, []string{an, an, an, an}, ""},
		{"grid base names a fidelity", traceBase, an, WorkKind, false, []string{"trace", "trace"}, ""},
		{"fidelity axis", fidelityAxis, "", WorkKind, false, []string{"trace", an}, ""},
		{"fidelity axis with fidelity", fidelityAxis, an, "", false, nil, "fidelity axis"},
		{"unknown fidelity", single, "clairvoyant", "", false, nil, "unknown fidelity"},
		{"malformed JSON", `{"name":`, "", "", false, nil, "scenario:"},
		{"colliding grid", collidingSpec, "", "", false, nil, `"g164"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, single, err := LoadWork([]byte(tc.doc), tc.fidelity)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) || b != nil {
					t.Fatalf("LoadWork = (%v, %v), want a nil batch and an error naming %q", b, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if b.Kind() != tc.wantKind || single != tc.wantSingle {
				t.Errorf("kind %q single %v, want %q %v", b.Kind(), single, tc.wantKind, tc.wantSingle)
			}
			fids := make([]string, b.Len())
			for i := range fids {
				fids[i] = configOf(b, i).Fidelity
			}
			if !slices.Equal(fids, tc.wantFids) {
				t.Errorf("item fidelities %q, want %q", fids, tc.wantFids)
			}
		})
	}
}

// TestLoadWorkRefusesNegativeBudget checks every document kind refuses a
// negative amat_budget_ps at load, naming the field and the value, while
// 0 keeps its meaning (the midpoint of the feasible range).
func TestLoadWorkRefusesNegativeBudget(t *testing.T) {
	const neg = `{"name":"x","l1_kb":16,"l2_kb":256,"workload":"tpcc","accesses":20000,"amat_budget_ps":-5,"fidelity":"analytical"}`
	for _, tc := range []struct{ name, doc string }{
		{"single", neg},
		{"batch", `{"scenarios":[` + neg + `]}`},
		{"grid", `{"grid":{"name":"g-{amat_budget_ps}","axes":{"amat_budget_ps":[-5,1900]},"base":{"l1_kb":16,"l2_kb":256,"workload":"tpcc","accesses":20000,"fidelity":"analytical"}}}`},
		{"grid, second value", `{"grid":{"name":"g-{amat_budget_ps}","axes":{"amat_budget_ps":[1900,-5]},"base":{"l1_kb":16,"l2_kb":256,"workload":"tpcc","accesses":20000,"fidelity":"analytical"}}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, _, err := LoadWork([]byte(tc.doc), "")
			if err == nil || !strings.Contains(err.Error(), "amat_budget_ps must not be negative, got -5") {
				t.Fatalf("LoadWork = (%v, %v), want a refusal naming amat_budget_ps and -5", b, err)
			}
		})
	}
	zero := strings.Replace(neg, `"amat_budget_ps":-5`, `"amat_budget_ps":0`, 1)
	if _, _, err := LoadWork([]byte(zero), ""); err != nil {
		t.Errorf("budget 0 refused: %v", err)
	}
}

// TestWireFullRangeGetsExpandChecks pins the grid decoder to Expand: a
// payload over the whole grid gets Expand's every check, the
// duplicate-name scan among them, while a sub-range decodes as a unit.
func TestWireFullRangeGetsExpandChecks(t *testing.T) {
	full := strings.TrimSuffix(collidingSpec, "}") + `,"range":{"lo":0,"hi":4}}`
	if _, err := work.Unmarshal(WorkKind, []byte(full)); err == nil || !strings.Contains(err.Error(), `"g164"`) {
		t.Errorf("colliding full-range payload: err = %v, want the duplicate name g164", err)
	}
	b := loadTiny(t)
	payload, err := b.MarshalRange(sweep.Range{Lo: 1, Hi: 3})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := work.Unmarshal(WorkKind, payload)
	if err != nil {
		t.Fatalf("valid sub-range payload: %v", err)
	}
	if got := sub.(*Batch).Configs(); !reflect.DeepEqual(got, b.Configs()[1:3]) {
		t.Errorf("sub-range points %+v, want points 1-2 of the grid", got)
	}
}

// sameBatch fails unless got has want's length, content hash and item
// keys (an even stride of them beyond 4096 items).
func sameBatch(t *testing.T, want, got work.Batch) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len %d, want %d", got.Len(), want.Len())
	}
	wh, err := want.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h, err := got.Hash(); err != nil || h != wh {
		t.Fatalf("Hash %s (%v), want %s", h, err, wh)
	}
	wk, gk := want.(work.ItemKeyer), got.(work.ItemKeyer)
	for i := 0; i < want.Len(); i += max(1, want.Len()/4096) {
		k1, err1 := wk.ItemKey(i)
		k2, err2 := gk.ItemKey(i)
		if err1 != nil || err2 != nil || k1 != k2 {
			t.Fatalf("ItemKey(%d) = %q (%v), want %q (%v)", i, k2, err2, k1, err1)
		}
	}
}

// fuzzFidelities are the -fidelity values FuzzLoadWork selects from:
// none, both valid ones, and an unknown one.
var fuzzFidelities = []string{"", profile.FidelityTrace, profile.FidelityAnalytical, "bogus"}

// FuzzLoadWork feeds arbitrary documents and -fidelity values to the one
// document rule. It may refuse a document but never panic; an accepted
// batch is non-empty, and -fidelity fills exactly the configs that name
// none, and every accepted config names two runnable cache levels: each
// within scenario.MaxCacheKB and a valid cachecfg organization. The
// command line and the wire agree on a raw document: a
// "scenarios" document decodes as the scenario-batch payload it is, and
// a grid plus its full range decodes as the grid — same hash, same item
// keys. A small accepted grid is brute-forced: every point valid, every
// name distinct.
func FuzzLoadWork(f *testing.F) {
	for _, path := range []string{
		"../../examples/scenarios.json",
		"../../examples/gridsweep/spec.json",
		"../../examples/gridsweep/spec-analytical.json",
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for sel := range fuzzFidelities {
			f.Add(data, uint8(sel))
		}
	}
	for _, doc := range []string{
		`{"name":"solo","l1_kb":16,"l2_kb":256,"workload":"tpcc","accesses":20000}`,
		`{"name":"odd","l1_kb":16,"l2_kb":3,"workload":"tpcc","fidelity":"analytical"}`,
		`{"scenarios":[{"name":"huge","l1_kb":16,"l2_kb":1048576,"workload":"tpcc"}]}`,
		`{"grid":{"axes":{"l2_kb":[256,24]},"base":{"l1_kb":16,"workload":"tpcc"}}}`,
		collidingSpec,
		`{"grid":{"name":"g-{fidelity}","axes":{"fidelity":["trace","analytical"]},"base":{"l1_kb":16,"l2_kb":256,"workload":"tpcc"}}}`,
		`{"scenarios":[{"name":"a","l1_kb":16,"l2_kb":256,"workload":"tpcc"},{"name":"a","l1_kb":32,"l2_kb":256,"workload":"tpcc"}]}`,
		`null`, `{}`, `{"grid":null}`, `{"scenarios":[]}`,
	} {
		for sel := range fuzzFidelities {
			f.Add([]byte(doc), uint8(sel))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, sel uint8) {
		fid := fuzzFidelities[int(sel)%len(fuzzFidelities)]
		b, single, err := LoadWork(data, fid)
		if fid == "" && scenario.IsBatch(data) && !IsSpec(data) {
			wb, werr := work.Unmarshal(scenario.JournalKind, data)
			if (werr == nil) != (err == nil) {
				t.Fatalf("LoadWork err = %v, but the scenario-batch decoder err = %v", err, werr)
			}
			if err == nil {
				sameBatch(t, b, wb)
			}
		}
		if err != nil {
			if b != nil {
				t.Fatalf("refusal %v returned a batch", err)
			}
			return
		}
		if !profile.ValidFidelity(fid) {
			t.Fatalf("accepted unknown fidelity %q", fid)
		}
		if b.Len() <= 0 {
			t.Fatalf("accepted %s as a batch of %d items", data, b.Len())
		}
		ref, refSingle, err := LoadWork(data, "")
		if err != nil {
			t.Fatalf("accepted with fidelity %q, refused without: %v", fid, err)
		}
		if ref.Kind() != b.Kind() || ref.Len() != b.Len() || refSingle != single || (single && b.Len() != 1) {
			t.Fatalf("fidelity %q changed the batch shape: %s/%d/%v, want %s/%d/%v",
				fid, b.Kind(), b.Len(), single, ref.Kind(), ref.Len(), refSingle)
		}
		for i := 0; i < b.Len(); i += max(1, b.Len()/4096) {
			want := configOf(ref, i)
			if want.Fidelity == "" {
				want.Fidelity = fid
			}
			got := configOf(b, i)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("item %d = %+v, want %+v", i, got, want)
			}
			if got.L1KB > scenario.MaxCacheKB || got.L2KB > scenario.MaxCacheKB {
				t.Fatalf("item %d (%s) accepted over the cap: %d/%d KB", i, got.Name, got.L1KB, got.L2KB)
			}
			for _, org := range []cachecfg.Config{cachecfg.L1(got.L1KB * cachecfg.KB), cachecfg.L2(got.L2KB * cachecfg.KB)} {
				if err := org.Validate(); err != nil {
					t.Fatalf("item %d (%s) accepted, yet %v", i, got.Name, err)
				}
			}
		}

		gb, isGrid := b.(*Batch)
		if !isGrid {
			return
		}
		if fid == "" {
			// The wire payload is the document plus its range.
			doc := bytes.TrimRight(data, " \t\r\n")
			payload := fmt.Sprintf(`%s,"range":{"lo":0,"hi":%d}}`, doc[:len(doc)-1], b.Len())
			wb, err := work.Unmarshal(WorkKind, []byte(payload))
			if err != nil {
				t.Fatalf("full-range payload refused: %v\npayload: %s", err, payload)
			}
			sameBatch(t, b, wb)
		}
		if b.Len() <= 4096 {
			names := make(map[string]int, b.Len())
			for i := 0; i < b.Len(); i++ {
				cfg := gb.ConfigAt(i)
				if err := cfg.Validate(); err != nil {
					t.Fatalf("point %d (%s) invalid: %v", i, cfg.Name, err)
				}
				if prev, dup := names[cfg.Name]; dup {
					t.Fatalf("points %d and %d both named %q", prev, i, cfg.Name)
				}
				names[cfg.Name] = i
			}
		}
	})
}
