package sim

import (
	"testing"

	"repro/internal/cachecfg"
	"repro/internal/trace"
)

func tinyCfg(size, block, assoc int) cachecfg.Config {
	return cachecfg.Config{SizeBytes: size, BlockBytes: block, Assoc: assoc, OutputBits: 64}
}

// Contains probes for addr without touching statistics or LRU state.
func (c *Cache) Contains(addr uint64) bool {
	set := c.sets[c.index(addr)]
	tag := c.tag(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(cachecfg.Config{SizeBytes: 100}, LRU, WriteBack); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestColdMissesThenHits(t *testing.T) {
	c := MustNew(tinyCfg(1024, 32, 2), LRU, WriteBack)
	// First touch of each block misses; second hits.
	for i := uint64(0); i < 16; i++ {
		if r := c.Access(i*32, false); r.Hit {
			t.Errorf("cold access %d hit", i)
		}
	}
	for i := uint64(0); i < 16; i++ {
		if r := c.Access(i*32, false); !r.Hit {
			t.Errorf("warm access %d missed", i)
		}
	}
	if c.Stats.Hits != 16 || c.Stats.Misses != 16 || c.Stats.Accesses != 32 {
		t.Errorf("stats: %+v", c.Stats)
	}
}

func TestSameBlockDifferentWordsHit(t *testing.T) {
	c := MustNew(tinyCfg(1024, 32, 2), LRU, WriteBack)
	c.Access(0, false)
	if r := c.Access(24, false); !r.Hit {
		t.Error("same-block access missed")
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped 2-set cache: blocks 0 and 2 map to set 0 (block 1 to set 1).
	c := MustNew(tinyCfg(64, 32, 1), LRU, WriteBack)
	c.Access(0, false)  // set 0 <- block 0
	c.Access(64, false) // set 0 <- block 2 evicts block 0
	if r := c.Access(0, false); r.Hit {
		t.Error("evicted block still present")
	}
}

func TestLRUOrderWithinSet(t *testing.T) {
	// 2-way set: A, B, touch A, insert C -> B evicted, A retained.
	c := MustNew(tinyCfg(128, 32, 2), LRU, WriteBack)
	a, b, cc := uint64(0), uint64(128), uint64(256) // all map to set 0
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // A is MRU
	c.Access(cc, false)
	if !c.Contains(a) {
		t.Error("MRU line evicted")
	}
	if c.Contains(b) {
		t.Error("LRU line survived")
	}
}

func TestFIFOEviction(t *testing.T) {
	// FIFO ignores recency: A, B, touch A, insert C -> A evicted (oldest).
	c := MustNew(tinyCfg(128, 32, 2), FIFO, WriteBack)
	a, b, cc := uint64(0), uint64(128), uint64(256)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false)
	c.Access(cc, false)
	if c.Contains(a) {
		t.Error("FIFO should evict the oldest line regardless of recency")
	}
	if !c.Contains(b) {
		t.Error("FIFO evicted the wrong line")
	}
}

func TestRandomEvictsSomething(t *testing.T) {
	c := MustNew(tinyCfg(128, 32, 2), Random, WriteBack)
	c.Access(0, false)
	c.Access(128, false)
	c.Access(256, false)
	present := 0
	for _, a := range []uint64{0, 128, 256} {
		if c.Contains(a) {
			present++
		}
	}
	if present != 2 {
		t.Errorf("2-way set holds %d of 3 blocks", present)
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	c := MustNew(tinyCfg(64, 32, 1), LRU, WriteBack)
	c.Access(0, true)        // dirty fill of set 0
	r := c.Access(64, false) // evicts dirty block 0
	if !r.Writeback {
		t.Fatal("dirty eviction must report a writeback")
	}
	if r.WritebackAddr != 0 {
		t.Errorf("writeback addr = %#x, want 0", r.WritebackAddr)
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats.Writebacks)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := MustNew(tinyCfg(64, 32, 1), LRU, WriteBack)
	c.Access(0, false)
	r := c.Access(64, false)
	if r.Writeback {
		t.Error("clean eviction must not write back")
	}
}

func TestWriteThroughNoAllocate(t *testing.T) {
	c := MustNew(tinyCfg(1024, 32, 2), LRU, WriteThrough)
	c.Access(0, true) // write miss: no allocation
	if c.Contains(0) {
		t.Error("write-through no-allocate cache allocated on a write miss")
	}
	// Read miss allocates; subsequent write hits and never dirties.
	c.Access(32, false)
	c.Access(32, true)
	r := c.Access(32+1024, false) // force eviction via same set? different set sizes...
	_ = r
	if c.Stats.Writebacks != 0 {
		t.Error("write-through cache must not write back")
	}
}

func TestReassembleRoundTrip(t *testing.T) {
	c := MustNew(tinyCfg(4096, 64, 4), LRU, WriteBack)
	addrs := []uint64{0, 64, 4096, 123456 &^ 63, 1 << 30}
	for _, a := range addrs {
		idx := c.index(a)
		tag := c.tag(a)
		if got := c.reassemble(tag, idx); got != a&^63 {
			t.Errorf("reassemble(%#x) = %#x, want %#x", a, got, a&^63)
		}
	}
}

func TestInclusionOfStatsSum(t *testing.T) {
	c := MustNew(tinyCfg(1024, 32, 2), LRU, WriteBack)
	g := trace.MustNew(trace.Params{
		Name: "t", FootprintBytes: 1 << 18, GranuleBytes: 64,
		ZipfAlpha: 1.2, MeanRunLength: 2, WriteFraction: 0.3, Seed: 3,
	})
	for i := 0; i < 20000; i++ {
		a := g.Next()
		c.Access(a.Addr, a.Write)
	}
	s := c.Stats
	if s.Hits+s.Misses != s.Accesses {
		t.Errorf("hits+misses != accesses: %+v", s)
	}
	if s.Reads+s.Writes != s.Accesses {
		t.Errorf("reads+writes != accesses: %+v", s)
	}
	if s.MissRate() < 0 || s.MissRate() > 1 {
		t.Errorf("miss rate %v", s.MissRate())
	}
}

func TestBiggerCacheNeverWorseLRU(t *testing.T) {
	// LRU inclusion property (same block size, same associativity-per-set
	// growth): a larger cache sees no more misses on the same trace.
	g := trace.MustNew(trace.Params{
		Name: "t", FootprintBytes: 1 << 20, GranuleBytes: 64,
		ZipfAlpha: 1.1, MeanRunLength: 2, WriteFraction: 0, Seed: 5,
	})
	accs := trace.Collect(g, 50000)
	var prev float64 = 2
	for _, size := range []int{1024, 4096, 16384, 65536} {
		c := MustNew(cachecfg.Config{SizeBytes: size, BlockBytes: 64, Assoc: size / 64, OutputBits: 64}, LRU, WriteBack)
		for _, a := range accs {
			c.Access(a.Addr, a.Write)
		}
		mr := c.Stats.MissRate()
		if mr > prev+1e-12 {
			t.Errorf("fully-assoc LRU %dB miss rate %v exceeds smaller cache %v", size, mr, prev)
		}
		prev = mr
	}
}

func TestHierarchyL2SeesOnlyMisses(t *testing.T) {
	l1 := MustNew(tinyCfg(1024, 32, 2), LRU, WriteBack)
	l2 := MustNew(tinyCfg(8192, 64, 4), LRU, WriteBack)
	h := NewHierarchy(l1, l2)
	g := trace.MustNew(trace.Params{
		Name: "t", FootprintBytes: 1 << 19, GranuleBytes: 64,
		ZipfAlpha: 1.2, MeanRunLength: 2, WriteFraction: 0.25, Seed: 8,
	})
	h.Run(g, 30000)
	if l2.Stats.Accesses > l1.Stats.Misses+l1.Stats.Writebacks {
		t.Errorf("L2 accesses %d exceed L1 misses %d + writebacks %d",
			l2.Stats.Accesses, l1.Stats.Misses, l1.Stats.Writebacks)
	}
	if l2.Stats.Accesses == 0 {
		t.Error("L2 never accessed")
	}
	m1, m2 := h.LocalMissRates()
	if m1 <= 0 || m1 >= 1 || m2 <= 0 || m2 > 1 {
		t.Errorf("local miss rates: %v, %v", m1, m2)
	}
	if g := h.GlobalL2MissRate(); g > m1 {
		t.Errorf("global L2 miss rate %v exceeds L1 local %v", g, m1)
	}
}

func TestPolicyStrings(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || Random.String() != "random" {
		t.Error("replacement policy names")
	}
	if WriteBack.String() != "write-back" || WriteThrough.String() != "write-through" {
		t.Error("write policy names")
	}
}
