package profile

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// refLRU is a brute-force fully-associative LRU write-back cache: the
// mathematical object the profiler claims to summarize for every
// capacity at once. Misses and dirty evictions are counted exactly.
type refLRU struct {
	cap    int
	order  []int64 // MRU first
	dirty  map[int64]bool
	misses int64
	wbs    int64
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{cap: capacity, dirty: make(map[int64]bool)}
}

func (c *refLRU) access(b int64, write bool) {
	for i, x := range c.order {
		if x == b {
			copy(c.order[1:i+1], c.order[:i])
			c.order[0] = b
			if write {
				c.dirty[b] = true
			}
			return
		}
	}
	c.misses++
	c.order = append([]int64{b}, c.order...)
	if write {
		c.dirty[b] = true
	}
	if len(c.order) > c.cap {
		victim := c.order[len(c.order)-1]
		c.order = c.order[:len(c.order)-1]
		if c.dirty[victim] {
			c.wbs++
			delete(c.dirty, victim)
		}
	}
}

// acc is one access of a reference stream: a block and whether it writes.
type acc struct {
	b     int64
	write bool
}

// streams the profiler must summarize exactly: mixtures of sequential
// runs, hot-set reuse, and uniform noise, all deterministic.
func testStreams() map[string][]acc {
	out := make(map[string][]acc)

	rng := rand.New(rand.NewSource(7))
	var mixed []acc
	for i := 0; i < 5000; i++ {
		var b int64
		switch {
		case rng.Float64() < 0.5: // hot set
			b = int64(rng.Intn(12))
		case rng.Float64() < 0.5: // mid set
			b = int64(12 + rng.Intn(50))
		default: // cold tail
			b = int64(62 + rng.Intn(400))
		}
		mixed = append(mixed, acc{b: b, write: rng.Float64() < 0.4})
	}
	out["mixed"] = mixed

	var seq []acc
	for r := 0; r < 40; r++ {
		base := int64(rng.Intn(100))
		for k := 0; k < 30; k++ {
			// runs re-touch each block a few times, like word-granule
			// streaming through a block
			seq = append(seq, acc{b: base + int64(k/3), write: r%3 == 0})
		}
	}
	out["sequential"] = seq

	var writes []acc
	for i := 0; i < 3000; i++ {
		writes = append(writes, acc{b: int64(rng.Intn(40)), write: true})
	}
	out["all-writes"] = writes

	return out
}

// TestExactAgainstReferenceLRU demands bit-exact agreement with the
// reference on the generated streams — the Mattson inclusion property is
// exact for fully-associative LRU, so any daylight here is a profiler
// bug, not model error.
func TestExactAgainstReferenceLRU(t *testing.T) {
	capacities := []int{1, 2, 3, 5, 8, 13, 21, 34, 64, 128, 500, 1000}
	for name, stream := range testStreams() {
		t.Run(name, func(t *testing.T) { checkExact(t, stream, capacities) })
	}
}

// FuzzProfileExact holds the profiler to the reference on arbitrary short
// streams over 64 blocks: each byte is one access, its low six bits the
// block and its top bit a write. The capacities run past the footprint,
// where a stream's longest reuse distance no longer bounds the answer.
func FuzzProfileExact(f *testing.F) {
	// Write block 1, then read block 48: at every capacity of 2 or more,
	// block 1 is still resident at the end, so nothing is written back.
	f.Add([]byte{0x80 | 1, 48})
	f.Add([]byte{0x80 | 3, 3, 7, 0x80 | 7, 3, 9, 12, 3, 0x80 | 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 128 {
			data = data[:128]
		}
		stream := make([]acc, len(data))
		for i, x := range data {
			stream[i] = acc{b: int64(x & 0x3f), write: x&0x80 != 0}
		}
		checkExact(t, stream, []int{1, 2, 3, 4, 6, 8, 13, 21, 32, 63, 64, 65})
	})
}

// checkExact drives one levelPass and a brute-force FA-LRU reference per
// capacity over the same stream and demands exact agreement on miss and
// write-back counts at every capacity.
func checkExact(t *testing.T, stream []acc, capacities []int) {
	t.Helper()
	p := trace.Params{FootprintBytes: 4096, GranuleBytes: 64}
	lp := newLevelPass(1, p, len(stream))
	refs := make([]*refLRU, len(capacities))
	for i, c := range capacities {
		refs[i] = newRefLRU(c)
	}
	for i, a := range stream {
		lp.step(uint64(a.b), a.write, int32(i+1))
		for _, r := range refs {
			r.access(a.b, a.write)
		}
	}
	cdf := lp.finalize()
	n := int64(len(stream))
	for i, c := range capacities {
		gotMisses := n - (at(cdf.readHits, c) + at(cdf.writeHits, c))
		if gotMisses != refs[i].misses {
			t.Errorf("capacity %d: profiler misses %d, reference %d", c, gotMisses, refs[i].misses)
		}
		if got := at(cdf.wb, c); got != refs[i].wbs {
			t.Errorf("capacity %d: profiler writebacks %d, reference %d", c, got, refs[i].wbs)
		}
	}
}

// TestSplitHistogramsAccount checks the read/write split and cold
// accounting close: reads + writes + nothing else, and the miss count at
// unbounded capacity is exactly the cold (first-touch) count.
func TestSplitHistogramsAccount(t *testing.T) {
	stream := testStreams()["mixed"]
	p := trace.Params{FootprintBytes: 4096, GranuleBytes: 64}
	lp := newLevelPass(1, p, len(stream))
	var wantWrites int64
	distinct := make(map[int64]bool)
	for i, a := range stream {
		lp.step(uint64(a.b), a.write, int32(i+1))
		if a.write {
			wantWrites++
		}
		distinct[a.b] = true
	}
	cdf := lp.finalize()
	n := int64(len(stream))
	huge := 1 << 30
	if got := at(cdf.readHits, huge) + at(cdf.writeHits, huge); got != n-cdf.cold {
		t.Errorf("hits at unbounded capacity = %d, want accesses-cold = %d", got, n-cdf.cold)
	}
	if cdf.cold != int64(len(distinct)) {
		t.Errorf("cold = %d, want distinct blocks = %d", cdf.cold, len(distinct))
	}
	// Write hits plus write misses must equal the stream's writes; at
	// unbounded capacity the only write misses are cold writes, so the
	// write-hit CDF tops out between writes-cold and writes.
	if got := at(cdf.writeHits, huge); got > wantWrites || got < wantWrites-cdf.cold {
		t.Errorf("write hits at unbounded capacity = %d, want within [%d,%d]", got, wantWrites-cdf.cold, wantWrites)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := BuildCtx(t.Context(), trace.SPEC2000(1), 0); err == nil {
		t.Error("Build accepted a zero access count")
	}
	if _, err := BuildCtx(t.Context(), trace.Params{}, 1000); err == nil {
		t.Error("Build accepted invalid trace params")
	}
	pr, err := BuildCtx(t.Context(), trace.SPEC2000(1), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.MissMatrix(nil, []int{1 << 20}); err == nil {
		t.Error("MissMatrix accepted an empty L1 size list")
	}
	if _, err := pr.MissMatrix([]int{4096}, nil); err == nil {
		t.Error("MissMatrix accepted an empty L2 size list")
	}
}

func TestValidFidelity(t *testing.T) {
	for _, ok := range []string{"", FidelityTrace, FidelityAnalytical} {
		if !ValidFidelity(ok) {
			t.Errorf("ValidFidelity(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"exact", "fast", "Trace", "ANALYTICAL"} {
		if ValidFidelity(bad) {
			t.Errorf("ValidFidelity(%q) = true, want false", bad)
		}
	}
}
