package grid

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/work"
)

// Configs materializes every point config of the batch (slice), in order,
// for tests to compare against; the lazy batch itself only has ConfigAt.
func (b *Batch) Configs() []scenario.Config {
	out := make([]scenario.Config, b.Len())
	for i := range out {
		out[i] = b.ConfigAt(i)
	}
	return out
}

// tinySpec is a 2×2 grid cheap to reason about: points in row-major
// order are (16,256), (16,512), (32,256), (32,512).
const tinySpec = `{"grid":{
	"axes":{"l1_kb":[16,32],"l2_kb":[256,512]},
	"base":{"workload":"tpcc","accesses":20000}
}}`

func loadTiny(t *testing.T) *Batch {
	t.Helper()
	s, err := Load(strings.NewReader(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestExpandRowMajor pins the expansion order (canonical axis order,
// last axis fastest) and the default naming and defaulting.
func TestExpandRowMajor(t *testing.T) {
	b := loadTiny(t)
	if b.Len() != 4 {
		t.Fatalf("expanded %d points, want 4", b.Len())
	}
	want := []struct {
		name     string
		l1, l2   int
		scheme   int
		accesses int
	}{
		{"g-l116-l2256-tpcc-s2", 16, 256, 2, 20000},
		{"g-l116-l2512-tpcc-s2", 16, 512, 2, 20000},
		{"g-l132-l2256-tpcc-s2", 32, 256, 2, 20000},
		{"g-l132-l2512-tpcc-s2", 32, 512, 2, 20000},
	}
	for i, c := range b.Configs() {
		w := want[i]
		if c.Name != w.name || c.L1KB != w.l1 || c.L2KB != w.l2 || c.Scheme != w.scheme || c.Accesses != w.accesses {
			t.Errorf("point %d = %+v, want %+v", i, c, w)
		}
		if c.Seed != 1 {
			t.Errorf("point %d seed = %d, want the scenario default 1", i, c.Seed)
		}
	}
}

// TestSpecValidationErrors pins the load-time diagnostics: empty axes,
// axisless grids, colliding bases, bogus templates, bogus caps, unknown
// fields.
func TestSpecValidationErrors(t *testing.T) {
	cases := map[string]struct{ spec, want string }{
		"empty axis": {
			`{"grid":{"axes":{"l1_kb":[],"l2_kb":[256]},"base":{"workload":"tpcc"}}}`,
			"axis l1_kb is empty",
		},
		"no axes": {
			`{"grid":{"axes":{},"base":{"workload":"tpcc"}}}`,
			"no axes declared",
		},
		"base sets an axis field": {
			`{"grid":{"axes":{"l1_kb":[16],"l2_kb":[256],"workload":["tpcc","specweb"]},"base":{"workload":"tpcc"}}}`,
			"base sets workload",
		},
		"base sets a name": {
			`{"grid":{"axes":{"l1_kb":[16]},"base":{"name":"x","l2_kb":256,"workload":"tpcc"}}}`,
			"base must not set a name",
		},
		"unknown template placeholder": {
			`{"grid":{"name":"g-{bogus}","axes":{"l1_kb":[16]},"base":{"l2_kb":256,"workload":"tpcc"}}}`,
			"{bogus}",
		},
		"unmatched brace": {
			`{"grid":{"name":"g-{l1_kb","axes":{"l1_kb":[16]},"base":{"l2_kb":256,"workload":"tpcc"}}}`,
			"unmatched '{'",
		},
		"cap above hard max": {
			`{"grid":{"max_points":99999999,"axes":{"l1_kb":[16]},"base":{"l2_kb":256,"workload":"tpcc"}}}`,
			"max_points",
		},
		"template omits a varying axis": {
			// Two budgets would expand to the same default name: the
			// template mentions neither amat_budget_ps nor anything
			// distinguishing. Caught analytically at load, no expansion.
			`{"grid":{"axes":{"l1_kb":[16],"amat_budget_ps":[1800,1900]},"base":{"l2_kb":256,"workload":"tpcc"}}}`,
			"omits varying axis amat_budget_ps",
		},
		"axis values render identically": {
			// fidelity "" is the trace default, so {fidelity} renders both
			// values as "trace" — a collision the template-coverage check
			// alone would miss.
			`{"grid":{"name":"g-l1{l1_kb}-{fidelity}","axes":{"l1_kb":[16],"fidelity":["","trace"]},"base":{"l2_kb":256,"workload":"tpcc"}}}`,
			`both render as "trace"`,
		},
		"repeated axis value": {
			`{"grid":{"axes":{"l1_kb":[16,16]},"base":{"l2_kb":256,"workload":"tpcc"}}}`,
			`both render as "16"`,
		},
		"unknown field": {
			`{"grid":{"axes":{"l1_kb":[16]},"base":{"l2_kb":256,"workload":"tpcc"},"bogus":1}}`,
			"bogus",
		},
	}
	for label, c := range cases {
		_, err := Load(strings.NewReader(c.spec))
		if err == nil {
			t.Errorf("%s: accepted", label)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to mention %q", label, err, c.want)
		}
	}
}

// TestExpandErrors pins the expansion-time diagnostics: the point-count
// cap, duplicate expanded names, and invalid per-point configs.
func TestExpandErrors(t *testing.T) {
	cases := map[string]struct{ spec, want string }{
		"point-count cap exceeded": {
			`{"grid":{"max_points":3,"axes":{"l1_kb":[16,32],"l2_kb":[256,512]},"base":{"workload":"tpcc"}}}`,
			"more than 3 points",
		},
		"duplicate expanded names": {
			// The analytical checks pass — both axes are in the template,
			// each axis's values render distinctly — but the placeholders
			// are adjacent with no separator, so (1,64) and (16,4) both
			// render "g-164". The backstop full-name scan catches it.
			`{"grid":{"name":"g-{l1_kb}{l2_kb}","axes":{"l1_kb":[1,16],"l2_kb":[64,4]},"base":{"workload":"tpcc"}}}`,
			"both expand to name",
		},
		"invalid point config": {
			`{"grid":{"axes":{"l1_kb":[16],"workload":["tpcc","nosuch"]},"base":{"l2_kb":256}}}`,
			"unknown workload",
		},
	}
	for label, c := range cases {
		s, err := Load(strings.NewReader(c.spec))
		if err != nil {
			t.Errorf("%s: failed at load (%v), want an expansion error", label, err)
			continue
		}
		_, err = s.Expand()
		if err == nil {
			t.Errorf("%s: expanded", label)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to mention %q", label, err, c.want)
		}
	}
}

// TestDuplicateNamesResolvedByTemplate checks the fix the duplicate-name
// error asks for: naming the varying axis in the template.
func TestDuplicateNamesResolvedByTemplate(t *testing.T) {
	s, err := Load(strings.NewReader(`{"grid":{
		"name":"g-l1{l1_kb}-b{amat_budget_ps}-{fast_memory}",
		"axes":{"l1_kb":[16],"amat_budget_ps":[1800,1900],"fast_memory":[false,true]},
		"base":{"l2_kb":256,"workload":"tpcc"}
	}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, b.Len())
	for _, c := range b.Configs() {
		names = append(names, c.Name)
	}
	want := []string{"g-l116-b1800-slow", "g-l116-b1800-fast", "g-l116-b1900-slow", "g-l116-b1900-fast"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("point %d named %q, want %q", i, names[i], want[i])
		}
	}
}

// TestFloatBudgetNamesFixedPoint is the regression test for the
// float-rendering bug: amat_budget_ps values large enough to trip
// strconv's 'g' format into scientific notation (1200000 → "1.2e+06")
// must render fixed-point in point names, and fractional budgets must
// keep their digits without growing trailing zeros.
func TestFloatBudgetNamesFixedPoint(t *testing.T) {
	s, err := Load(strings.NewReader(`{"grid":{
		"name":"g-b{amat_budget_ps}",
		"axes":{"amat_budget_ps":[1812.5, 1900, 1200000]},
		"base":{"l1_kb":16,"l2_kb":256,"workload":"tpcc"}
	}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"g-b1812.5", "g-b1900", "g-b1200000"}
	for i, c := range b.Configs() {
		if c.Name != want[i] {
			t.Errorf("point %d named %q, want %q", i, c.Name, want[i])
		}
		if strings.ContainsAny(c.Name, "eE+") {
			t.Errorf("point %d name %q rendered in scientific notation", i, c.Name)
		}
	}
}

// TestFidelityAxis pins the fidelity axis: it varies fastest (it is
// last in canonical order), the {fidelity} placeholder renders, and
// each point carries the axis value.
func TestFidelityAxis(t *testing.T) {
	s, err := Load(strings.NewReader(`{"grid":{
		"name":"g-l1{l1_kb}-{fidelity}",
		"axes":{"l1_kb":[16,32],"fidelity":["trace","analytical"]},
		"base":{"l2_kb":256,"workload":"tpcc"}
	}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ name, fidelity string }{
		{"g-l116-trace", "trace"},
		{"g-l116-analytical", "analytical"},
		{"g-l132-trace", "trace"},
		{"g-l132-analytical", "analytical"},
	}
	for i, c := range b.Configs() {
		if c.Name != want[i].name || c.Fidelity != want[i].fidelity {
			t.Errorf("point %d = (%q, fidelity %q), want (%q, %q)",
				i, c.Name, c.Fidelity, want[i].name, want[i].fidelity)
		}
	}
}

// TestFidelityPlaceholderDefaultsToTrace checks that a base without an
// explicit fidelity renders the placeholder as "trace" — names stay
// meaningful for configs relying on the implicit default.
func TestFidelityPlaceholderDefaultsToTrace(t *testing.T) {
	s, err := Load(strings.NewReader(`{"grid":{
		"name":"g-l1{l1_kb}-{fidelity}",
		"axes":{"l1_kb":[16]},
		"base":{"l2_kb":256,"workload":"tpcc"}
	}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if name := b.Configs()[0].Name; name != "g-l116-trace" {
		t.Errorf("point named %q, want g-l116-trace", name)
	}
}

// TestFidelityAxisErrors pins the load/expand diagnostics specific to
// the fidelity axis: base/axis collision and invalid values.
func TestFidelityAxisErrors(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"grid":{
		"axes":{"l1_kb":[16],"fidelity":["trace","analytical"]},
		"base":{"l2_kb":256,"workload":"tpcc","fidelity":"trace"}
	}}`)); err == nil || !strings.Contains(err.Error(), "base sets fidelity") {
		t.Errorf("colliding fidelity base err = %v, want it to mention base sets fidelity", err)
	}
	s, err := Load(strings.NewReader(`{"grid":{
		"name":"g-l1{l1_kb}-{fidelity}",
		"axes":{"l1_kb":[16],"fidelity":["analytical","clairvoyant"]},
		"base":{"l2_kb":256,"workload":"tpcc"}
	}}`))
	if err != nil {
		t.Fatalf("load rejected spec with bad fidelity value, want an expansion error: %v", err)
	}
	if _, err := s.Expand(); err == nil || !strings.Contains(err.Error(), "fidelity") {
		t.Errorf("invalid fidelity value expand err = %v, want it to mention fidelity", err)
	}
}

// TestIsSpec pins the document probe.
func TestIsSpec(t *testing.T) {
	if !IsSpec([]byte(`{"grid":{}}`)) {
		t.Error("grid document not recognized")
	}
	if IsSpec([]byte(`{"scenarios":[]}`)) || IsSpec([]byte(`{"name":"x"}`)) || IsSpec([]byte(`garbage`)) {
		t.Error("non-grid document misread as grid")
	}
}

// TestWireRoundTrip pins the registry cycle: MarshalRange → Unmarshal
// rebuilds a slice whose points equal the coordinator's, by re-expansion
// rather than by shipping configs.
func TestWireRoundTrip(t *testing.T) {
	b := loadTiny(t)
	payload, err := b.MarshalRange(sweep.Range{Lo: 1, Hi: 3})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := work.Unmarshal(WorkKind, payload)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 2 {
		t.Fatalf("sub-batch has %d items, want 2", sub.Len())
	}
	got := sub.(*Batch).Configs()
	want := b.Configs()[1:3]
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("rebuilt point %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// A sub-slice of the sub-batch maps back to absolute coordinates.
	nested, err := sub.(*Batch).MarshalRange(sweep.Range{Lo: 1, Hi: 2})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := work.Unmarshal(WorkKind, nested)
	if err != nil {
		t.Fatal(err)
	}
	if cfgs := leaf.(*Batch).Configs(); len(cfgs) != 1 || !reflect.DeepEqual(cfgs[0], b.Configs()[2]) {
		t.Errorf("nested slice = %+v, want point 2 only", cfgs)
	}
}

// TestWireRangeErrors pins out-of-range decode failures.
func TestWireRangeErrors(t *testing.T) {
	for _, payload := range []string{
		`{"grid":{"axes":{"l1_kb":[16,32]},"base":{"l2_kb":256,"workload":"tpcc"}},"range":{"lo":0,"hi":3}}`,
		`{"grid":{"axes":{"l1_kb":[16,32]},"base":{"l2_kb":256,"workload":"tpcc"}},"range":{"lo":1,"hi":1}}`,
		`{"grid":{"axes":{"l1_kb":[16,32]},"base":{"l2_kb":256,"workload":"tpcc"}},"range":{"lo":-1,"hi":1}}`,
	} {
		if _, err := work.Unmarshal(WorkKind, []byte(payload)); err == nil {
			t.Errorf("payload %s decoded", payload)
		}
	}
}

// TestHashPinsSpec checks the content hash distinguishes specs and
// ranges but not re-expansions.
func TestHashPinsSpec(t *testing.T) {
	h1, err := loadTiny(t).Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := loadTiny(t).Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("re-expanding the same spec changed the hash")
	}
	s, err := Load(strings.NewReader(`{"grid":{
		"axes":{"l1_kb":[16,32],"l2_kb":[256,512]},
		"base":{"workload":"tpcc","accesses":20001}
	}}`))
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	h3, err := other.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Error("a different spec hashed identically")
	}
}
