package work_test

// The wire contract every registered kind signs: a batch's full-range
// payload decodes back into the same batch — same length, same content
// hash, same item keys — so a unit runs on any worker exactly as its
// batch would run locally, with nothing but the payload to go on.

import (
	"slices"
	"testing"

	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/work"
)

// wireKinds lists the registered kinds the wire checks cover: every one
// but the driver's own synthetic test kind (work_test.go).
func wireKinds() []string {
	return slices.DeleteFunc(work.Kinds(), func(k string) bool { return k == "toy" })
}

// maxKeysChecked bounds the item keys one round trip compares: every
// index of a batch up to this size, an even stride of them (plus the
// last) beyond it, so a fuzzed 2^24-point grid stays a fast input.
const maxKeysChecked = 1 << 12

// checkRoundTrip decodes b's full-range payload as kind and fails unless
// the result has b's length, content hash and item keys.
func checkRoundTrip(t *testing.T, kind string, b work.Batch) {
	t.Helper()
	payload, err := b.MarshalRange(sweep.Range{Lo: 0, Hi: b.Len()})
	if err != nil {
		t.Fatalf("%s: marshal full range: %v", kind, err)
	}
	got, err := work.Unmarshal(kind, payload)
	if err != nil {
		t.Fatalf("%s: full-range payload does not decode: %v\npayload: %s", kind, err, payload)
	}
	if got.Len() != b.Len() {
		t.Fatalf("%s: decoded Len %d, want %d", kind, got.Len(), b.Len())
	}
	want, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h, err := got.Hash(); err != nil || h != want {
		t.Fatalf("%s: decoded Hash %s (%v), want %s", kind, h, err, want)
	}
	bk, ok := b.(work.ItemKeyer)
	gk, gok := got.(work.ItemKeyer)
	if ok != gok {
		t.Fatalf("%s: decoded batch ItemKeyer = %v, want %v", kind, gok, ok)
	}
	if !ok {
		return
	}
	n := b.Len()
	step := max(1, n/maxKeysChecked)
	for i := 0; i < n; i += step {
		checkKey(t, kind, bk, gk, i)
	}
	checkKey(t, kind, bk, gk, n-1)
}

// checkKey compares item i's key in the original and the decoded batch.
func checkKey(t *testing.T, kind string, b, got work.ItemKeyer, i int) {
	t.Helper()
	want, err := b.ItemKey(i)
	if err != nil {
		t.Fatal(err)
	}
	if k, err := got.ItemKey(i); err != nil || k != want {
		t.Fatalf("%s: decoded ItemKey(%d) = %q (%v), want %q", kind, i, k, err, want)
	}
}

// TestWireRoundTripEveryKind runs the round trip over every registered
// kind's equivalence fixture.
func TestWireRoundTripEveryKind(t *testing.T) {
	fx := fixtures(t)
	for _, kind := range wireKinds() {
		b, ok := fx[kind]
		if !ok {
			t.Fatalf("registered kind %q has no fixture; add one to fixtures()", kind)
		}
		t.Run(kind, func(t *testing.T) { checkRoundTrip(t, kind, b) })
	}
}

// FuzzUnmarshal feeds arbitrary payloads to every registered kind's
// decoder. A decoder may refuse a payload but never panic; a payload it
// accepts is a non-empty batch that survives the wire round trip.
func FuzzUnmarshal(f *testing.F) {
	kinds := wireKinds()
	sel := func(kind string) uint8 { return uint8(slices.Index(kinds, kind)) }
	fx := fixtures(f)
	for _, kind := range kinds {
		payload, err := fx[kind].MarshalRange(sweep.Range{Lo: 0, Hi: fx[kind].Len()})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sel(kind), []byte(payload))
	}
	// The experiments form written before units carried their scale.
	f.Add(sel(exp.WorkKind), []byte(`{"ids":["fig1"]}`))
	// The grid fixture's four points with a range running past the last.
	f.Add(sel(grid.WorkKind), []byte(`{"grid":{"axes":{"l1_kb":[16,32],"l2_kb":[256,512]},`+
		`"base":{"workload":"tpcc","accesses":20000}},"range":{"lo":2,"hi":99}}`))
	f.Add(sel(scenario.JournalKind), []byte(`{"scenarios":[]}`))

	f.Fuzz(func(t *testing.T, s uint8, payload []byte) {
		kind := kinds[int(s)%len(kinds)]
		b, err := work.Unmarshal(kind, payload)
		if err != nil {
			return
		}
		if b.Len() <= 0 {
			t.Fatalf("%s: accepted %s as a batch of %d items", kind, payload, b.Len())
		}
		checkRoundTrip(t, kind, b)
	})
}
