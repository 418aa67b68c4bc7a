package trace

import (
	"testing"
)

func TestParamsValidate(t *testing.T) {
	good := SPEC2000(1)
	if err := good.Validate(); err != nil {
		t.Errorf("SPEC2000 params invalid: %v", err)
	}
	bad := []Params{
		{Name: "x", FootprintBytes: 0, GranuleBytes: 64, ZipfAlpha: 1, MeanRunLength: 1},
		{Name: "x", FootprintBytes: 32, GranuleBytes: 64, ZipfAlpha: 1, MeanRunLength: 1},
		{Name: "x", FootprintBytes: 1 << 20, GranuleBytes: 64, ZipfAlpha: 0, MeanRunLength: 1},
		{Name: "x", FootprintBytes: 1 << 20, GranuleBytes: 64, ZipfAlpha: 1, MeanRunLength: 0.5},
		{Name: "x", FootprintBytes: 1 << 20, GranuleBytes: 64, ZipfAlpha: 1, MeanRunLength: 1, WriteFraction: 1.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	if _, err := New(Params{}); err == nil {
		t.Error("empty params accepted")
	}
}

func TestDeterminism(t *testing.T) {
	p := SPEC2000(42)
	p.FootprintBytes = 1 << 20 // keep the test quick
	g1 := MustNew(p)
	g2 := MustNew(p)
	for i := 0; i < 10000; i++ {
		a1, a2 := g1.Next(), g2.Next()
		if a1 != a2 {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a1, a2)
		}
	}
}

func TestResetReplays(t *testing.T) {
	p := SPEC2000(7)
	p.FootprintBytes = 1 << 20
	g := MustNew(p)
	first := Collect(g, 5000)
	g.Reset()
	second := Collect(g, 5000)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("reset did not replay at %d", i)
		}
	}
}

func TestSeedChangesStream(t *testing.T) {
	a := SPEC2000(1)
	b := SPEC2000(2)
	a.FootprintBytes = 1 << 20
	b.FootprintBytes = 1 << 20
	g1, g2 := MustNew(a), MustNew(b)
	same := 0
	n := 1000
	for i := 0; i < n; i++ {
		if g1.Next().Addr == g2.Next().Addr {
			same++
		}
	}
	if same > n/2 {
		t.Errorf("different seeds produced %d/%d identical addresses", same, n)
	}
}

func TestAddressesWithinFootprint(t *testing.T) {
	p := SPECWEB(3)
	p.FootprintBytes = 2 << 20
	g := MustNew(p)
	limit := p.FootprintBytes + p.WarmBytes
	sawWarm := false
	for i := 0; i < 20000; i++ {
		a := g.Next()
		if a.Addr >= limit {
			t.Fatalf("address %#x outside footprint+warm %#x", a.Addr, limit)
		}
		if a.Addr >= p.FootprintBytes {
			sawWarm = true
		}
		if a.Addr%8 != 0 {
			t.Fatalf("address %#x not word aligned", a.Addr)
		}
	}
	if !sawWarm {
		t.Error("warm region never referenced despite WarmFraction > 0")
	}
}

func TestWriteFraction(t *testing.T) {
	p := TPCC(5)
	p.FootprintBytes = 2 << 20
	g := MustNew(p)
	writes := 0
	n := 50000
	for i := 0; i < n; i++ {
		if g.Next().Write {
			writes++
		}
	}
	frac := float64(writes) / float64(n)
	if frac < p.WriteFraction-0.03 || frac > p.WriteFraction+0.03 {
		t.Errorf("write fraction = %v, want ~%v", frac, p.WriteFraction)
	}
}

func TestTemporalLocalitySkew(t *testing.T) {
	// With Zipf alpha > 1, a small fraction of granules should absorb most
	// accesses.
	p := SPEC2000(11)
	p.FootprintBytes = 4 << 20
	g := MustNew(p)
	counts := make(map[uint64]int)
	n := 100000
	for i := 0; i < n; i++ {
		counts[g.Next().Addr/p.GranuleBytes]++
	}
	granules := p.FootprintBytes / p.GranuleBytes
	touched := uint64(len(counts))
	if touched >= granules/2 {
		t.Errorf("touched %d of %d granules — no locality", touched, granules)
	}
}

func TestHigherAlphaMoreLocality(t *testing.T) {
	distinct := func(alpha float64) int {
		p := Params{Name: "x", FootprintBytes: 4 << 20, GranuleBytes: 64,
			ZipfAlpha: alpha, MeanRunLength: 1.0001, WriteFraction: 0, Seed: 9}
		g := MustNew(p)
		seen := make(map[uint64]bool)
		for i := 0; i < 50000; i++ {
			seen[g.Next().Addr/64] = true
		}
		return len(seen)
	}
	hot := distinct(1.5)
	cold := distinct(1.05)
	if hot >= cold {
		t.Errorf("alpha=1.5 touched %d granules, alpha=1.05 touched %d — skew inverted", hot, cold)
	}
}

func TestSequentialRuns(t *testing.T) {
	p := Params{Name: "seq", FootprintBytes: 1 << 20, GranuleBytes: 64,
		ZipfAlpha: 1.2, MeanRunLength: 8, WriteFraction: 0, Seed: 13}
	g := MustNew(p)
	sequential := 0
	n := 20000
	prev := g.Next().Addr
	for i := 1; i < n; i++ {
		cur := g.Next().Addr
		if cur == prev+8 {
			sequential++
		}
		prev = cur
	}
	// Mean run length 8 words means most transitions advance one word.
	if frac := float64(sequential) / float64(n); frac < 0.5 {
		t.Errorf("word-sequential transition fraction = %v, want >= 0.5 at mean run 8", frac)
	}
}

func TestSuites(t *testing.T) {
	suites := Suites(1)
	if len(suites) != 3 {
		t.Fatalf("want 3 suites, got %d", len(suites))
	}
	names := map[string]bool{}
	for _, s := range suites {
		if err := s.Validate(); err != nil {
			t.Errorf("suite %s invalid: %v", s.Name, err)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"spec2000", "specweb", "tpcc"} {
		if !names[want] {
			t.Errorf("missing suite %s", want)
		}
	}
	// Footprints ordered: spec2000 < specweb < tpcc.
	if !(SPEC2000(1).FootprintBytes < SPECWEB(1).FootprintBytes &&
		SPECWEB(1).FootprintBytes < TPCC(1).FootprintBytes) {
		t.Error("suite footprints must be increasing")
	}
}

// TestSuiteMatchesSuites pins the one name rule to the evaluation's
// streams: Suite(name, seed) is the entry of Suites(seed) with that name,
// every suite seeded at its offset from seed, and no other name is a
// suite.
func TestSuiteMatchesSuites(t *testing.T) {
	for _, seed := range []int64{1, 7, -3} {
		want := []Params{SPEC2000(seed), SPECWEB(seed + 1), TPCC(seed + 2)}
		all := Suites(seed)
		if len(all) != len(want) {
			t.Fatalf("seed %d: %d suites, want %d", seed, len(all), len(want))
		}
		for i, p := range all {
			if p != want[i] {
				t.Errorf("seed %d: Suites[%d] = %+v, want %+v", seed, i, p, want[i])
			}
			if got, ok := Suite(p.Name, seed); !ok || got != p {
				t.Errorf("seed %d: Suite(%q) = %+v, %v; want the Suites entry %+v", seed, p.Name, got, ok, p)
			}
		}
	}
	for _, name := range []string{"", "average", "stream", "ptrchase", "TPCC"} {
		if _, ok := Suite(name, 1); ok {
			t.Errorf("Suite(%q) is a suite", name)
		}
	}
}

func TestCollect(t *testing.T) {
	p := SPEC2000(1)
	p.FootprintBytes = 1 << 20
	g := MustNew(p)
	accs := Collect(g, 100)
	if len(accs) != 100 {
		t.Errorf("Collect returned %d", len(accs))
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid params")
		}
	}()
	MustNew(Params{})
}
