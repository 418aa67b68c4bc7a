package sim

import (
	"testing"

	"repro/internal/cachecfg"
	"repro/internal/trace"
)

// Additional simulator robustness tests beyond the core behaviours.

func TestAssociativitySweepImproves(t *testing.T) {
	// On a conflict-heavy synthetic trace, higher associativity at equal
	// capacity must not increase the miss rate (same total lines, LRU).
	g := trace.MustNew(trace.Params{
		Name: "t", FootprintBytes: 1 << 20, GranuleBytes: 64,
		ZipfAlpha: 1.3, MeanRunLength: 4, WriteFraction: 0.2, Seed: 21,
	})
	accs := trace.Collect(g, 80000)
	var prev float64 = 2
	for _, assoc := range []int{1, 2, 4, 8} {
		c := MustNew(cachecfg.Config{
			SizeBytes: 8 * cachecfg.KB, BlockBytes: 64, Assoc: assoc, OutputBits: 64,
		}, LRU, WriteBack)
		for _, a := range accs {
			c.Access(a.Addr, a.Write)
		}
		mr := c.Stats.MissRate()
		// Associativity occasionally hurts slightly on pathological maps;
		// allow half a point of slack.
		if mr > prev+0.005 {
			t.Errorf("assoc %d: miss rate %v worse than lower associativity %v", assoc, mr, prev)
		}
		prev = mr
	}
}

func TestWriteThroughHierarchy(t *testing.T) {
	l1 := MustNew(cachecfg.Config{SizeBytes: 4 * cachecfg.KB, BlockBytes: 32, Assoc: 2, OutputBits: 64}, LRU, WriteThrough)
	l2 := MustNew(cachecfg.L2(256*cachecfg.KB), LRU, WriteBack)
	h := NewHierarchy(l1, l2)
	g := trace.MustNew(trace.Params{
		Name: "t", FootprintBytes: 1 << 20, GranuleBytes: 64,
		ZipfAlpha: 1.3, MeanRunLength: 4, WriteFraction: 0.3, Seed: 23,
	})
	h.Run(g, 50000)
	if l1.Stats.Writebacks != 0 {
		t.Error("write-through L1 must never write back")
	}
	if l2.Stats.Accesses == 0 {
		t.Error("L2 must see the write-through traffic")
	}
	m1, m2 := h.LocalMissRates()
	if m1 <= 0 || m2 <= 0 {
		t.Errorf("miss rates %v/%v", m1, m2)
	}
}

func TestRobustnessWorkloads(t *testing.T) {
	// The extra suites drive the simulator to its extremes: streaming has
	// high L1 miss rates that spatial locality bounds at ~1/blockwords;
	// pointer chasing misses on nearly every L1-capacity-exceeding draw.
	for _, p := range trace.ExtraSuites(1) {
		g, err := trace.New(p)
		if err != nil {
			t.Fatal(err)
		}
		c := MustNew(cachecfg.L1(16*cachecfg.KB), LRU, WriteBack)
		for i := 0; i < 100000; i++ {
			a := g.Next()
			c.Access(a.Addr, a.Write)
		}
		mr := c.Stats.MissRate()
		switch p.Name {
		case "stream":
			// One compulsory miss per 32B block = 4 words: ~25% of accesses,
			// minus Zipf reuse.
			if mr < 0.05 || mr > 0.35 {
				t.Errorf("stream miss rate %v outside the spatial bound band", mr)
			}
		case "ptrchase":
			// No spatial locality: miss rate set by the temporal tail only.
			if mr < 0.1 || mr > 0.9 {
				t.Errorf("pointer-chase miss rate %v implausible", mr)
			}
		}
	}
}

func TestHierarchyWritebackPropagation(t *testing.T) {
	// A dirty L1 eviction must land in the L2 (allocate-on-writeback): the
	// block is then an L2 hit even though the CPU never re-references it
	// between the writeback and the probe.
	l1 := MustNew(cachecfg.Config{SizeBytes: 64, BlockBytes: 32, Assoc: 1, OutputBits: 64}, LRU, WriteBack)
	l2 := MustNew(cachecfg.Config{SizeBytes: 4 * cachecfg.KB, BlockBytes: 32, Assoc: 4, OutputBits: 64}, LRU, WriteBack)
	h := NewHierarchy(l1, l2)

	h.Access(0, true)   // dirty block 0 in L1 (L2 miss on the fill path)
	h.Access(64, false) // evicts block 0 from set 0 -> writeback into L2
	if !l2.Contains(0) {
		t.Error("dirty victim not written into L2")
	}
}

func TestMatrixDeterminism(t *testing.T) {
	p := trace.SPEC2000(9)
	p.FootprintBytes = 2 << 20
	a, err := BuildMissMatrixCtx(t.Context(), p, []int{8 * cachecfg.KB}, []int{256 * cachecfg.KB}, 30000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildMissMatrixCtx(t.Context(), p, []int{8 * cachecfg.KB}, []int{256 * cachecfg.KB}, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if a.L1Local[8*cachecfg.KB] != b.L1Local[8*cachecfg.KB] {
		t.Error("miss matrix not deterministic")
	}
	if a.L2Local[8*cachecfg.KB][256*cachecfg.KB] != b.L2Local[8*cachecfg.KB][256*cachecfg.KB] {
		t.Error("L2 rates not deterministic")
	}
}

func TestStatsHitRate(t *testing.T) {
	// Four blocks touched ten times: four cold misses, six hits.
	c := MustNew(tinyCfg(1024, 32, 2), LRU, WriteBack)
	for i := 0; i < 10; i++ {
		c.Access(uint64(i%4)*32, false)
	}
	if s := c.Stats; s.Hits != 6 || s.MissRate() != 0.4 {
		t.Errorf("hits %d, miss rate %v; want 6, 0.4", s.Hits, s.MissRate())
	}
	var empty Stats
	if empty.MissRate() != 0 {
		t.Error("empty stats miss rate should be 0")
	}
}
