package profile

import (
	"context"
	"fmt"

	"repro/internal/trace"
)

// Fidelity names the two matrix-building paths a scenario (or an
// experiment environment) can select. The empty string means
// FidelityTrace everywhere a fidelity is consumed.
const (
	// FidelityTrace is the golden reference: trace-driven set-associative
	// simulation (sim.BuildMissMatrixCtx).
	FidelityTrace = "trace"
	// FidelityAnalytical is this package's stack-distance fast path.
	FidelityAnalytical = "analytical"
)

// ValidFidelity reports whether s names a fidelity ("" selects trace).
func ValidFidelity(s string) bool {
	switch s {
	case "", FidelityTrace, FidelityAnalytical:
		return true
	}
	return false
}

// Tolerance is the documented agreement bound between the analytical
// fast path and trace-driven simulation: every per-(L1,L2) local miss
// rate and per-L1 write-back rate agrees within this absolute epsilon
// across the registered suites and the canonical size lists. The value
// is calibrated by the cross-fidelity tests with margin over the
// measured worst case (set-associativity conflicts and the L1-filtered
// L2 reference stream are the two modeled-away effects).
const Tolerance = 0.04

// MaxAccesses caps the trace length of one simulation or profiling
// pass. A pass sizes its Fenwick tree by the access count, so the cap
// bounds that tree at 256 MiB; it sits well above every length the repo
// runs. Every parser that admits an access count from outside — scenario
// configs and experiment wire payloads — refuses anything larger.
const MaxAccesses = 1 << 26

// ctxCheckStride matches internal/sim: how many profiled accesses run
// between context checks.
const ctxCheckStride = 1 << 16

// levelCDF is the finalized profile of one cache level (one block
// granularity): cumulative hit counts and write-back counts indexed by
// capacity in blocks.
type levelCDF struct {
	blockBytes int
	n          int64 // profiled accesses
	cold       int64 // first-touch accesses (miss at every capacity)
	// readHits[c] / writeHits[c] count reads/writes whose stack distance
	// is < c — i.e. hits in a fully-associative LRU cache of c blocks.
	// Index clamps at the maximum observed distance: larger capacities
	// hit everything but the cold misses.
	readHits  []int64
	writeHits []int64
	// wb[c] counts dirty evictions (write-backs) from a cache of c
	// blocks over the profiled stream, end-of-stream residents included
	// only when they were evicted (not for blocks still resident). It
	// runs to the deepest such eviction, which can lie past the maximum
	// reuse distance, and clamps there.
	wb []int64
}

// at reads a CDF array with capacity clamping.
func at(arr []int64, c int) int64 {
	if c < 0 {
		c = 0
	}
	if c >= len(arr) {
		c = len(arr) - 1
	}
	return arr[c]
}

// missRatio is misses/accesses at a capacity of c blocks.
func (l *levelCDF) missRatio(c int) float64 {
	hits := at(l.readHits, c) + at(l.writeHits, c)
	return float64(l.n-hits) / float64(l.n)
}

// writebacksPerAccess is dirty evictions per profiled access at a
// capacity of c blocks.
func (l *levelCDF) writebacksPerAccess(c int) float64 {
	return float64(at(l.wb, c)) / float64(l.n)
}

// Profile is the one-pass reuse profile of one workload at one trace
// length. It is immutable after Build and safe for concurrent queries.
type Profile struct {
	// Params is the profiled workload.
	Params trace.Params
	// Accesses is the profiled stream length.
	Accesses int

	l1 levelCDF // 32 B granularity (cachecfg.L1 geometry)
	l2 levelCDF // 64 B granularity (cachecfg.L2 geometry)
}

// BuildCtx runs the single profiling pass: n accesses from a fresh
// generator, feeding the L1- and L2-granularity distance trackers in the
// same loop. Cancelling ctx aborts mid-pass (checked every
// ctxCheckStride accesses) with ctx's error.
func BuildCtx(ctx context.Context, p trace.Params, n int) (*Profile, error) {
	if n <= 0 {
		return nil, fmt.Errorf("profile: need a positive access count, got %d", n)
	}
	gen, err := trace.New(p)
	if err != nil {
		return nil, err
	}
	l1 := newLevelPass(l1BlockBytes, p, n)
	l2 := newLevelPass(l2BlockBytes, p, n)
	for i := 0; i < n; i++ {
		if i%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		a := gen.Next()
		t := int32(i + 1)
		l1.step(a.Addr, a.Write, t)
		l2.step(a.Addr, a.Write, t)
	}
	return &Profile{
		Params:   p,
		Accesses: n,
		l1:       l1.finalize(),
		l2:       l2.finalize(),
	}, nil
}

// L1MissRatio returns the modeled L1 local miss rate for an L1 of the
// given capacity in bytes (cachecfg.L1 geometry).
func (pr *Profile) L1MissRatio(sizeBytes int) float64 {
	return pr.l1.missRatio(sizeBytes / pr.l1.blockBytes)
}

// L1WritebacksPerAccess returns the modeled L1 dirty-writeback rate per
// access for an L1 of the given capacity in bytes.
func (pr *Profile) L1WritebacksPerAccess(sizeBytes int) float64 {
	return pr.l1.writebacksPerAccess(sizeBytes / pr.l1.blockBytes)
}

// L2GlobalMissRatio returns the modeled L2 misses per CPU access for an
// L2 of the given capacity in bytes (cachecfg.L2 geometry).
func (pr *Profile) L2GlobalMissRatio(sizeBytes int) float64 {
	return pr.l2.missRatio(sizeBytes / pr.l2.blockBytes)
}

// L2LocalMissRatio returns the modeled L2 local miss rate — L2 misses
// per L2 access — for the (L1, L2) capacity pair in bytes. The L2 access
// stream is the L1 miss stream plus the L1's dirty write-backs, exactly
// as the simulated hierarchy forwards it.
func (pr *Profile) L2LocalMissRatio(l1SizeBytes, l2SizeBytes int) float64 {
	refs := pr.L1MissRatio(l1SizeBytes) + pr.L1WritebacksPerAccess(l1SizeBytes)
	if refs <= 0 {
		return 0
	}
	m := pr.L2GlobalMissRatio(l2SizeBytes) / refs
	if m > 1 {
		return 1
	}
	return m
}

// fenwick is a binary indexed tree over access times 1..n, marking the
// most recent access time of each tracked block. The number of marks in
// (t, n] is the number of distinct blocks touched since time t — the
// stack distance machinery.
type fenwick []int32

func (f fenwick) add(i int, v int32) {
	for ; i < len(f); i += i & -i {
		f[i] += v
	}
}

func (f fenwick) sum(i int) int32 {
	var s int32
	for ; i > 0; i -= i & -i {
		s += f[i]
	}
	return s
}

// levelPass is the in-flight per-granularity state of one profiling
// pass. Sequential runs inside one block take a distance-0 fast path
// (no tree access); the tree is touched only when the stream moves to a
// different block.
type levelPass struct {
	blockBytes uint64
	n          int

	lastTime []int32 // per block: time of the last access (0 = never)
	dirtyGap []int32 // per block: see below; -1 = clean
	marks    fenwick
	nMarks   int32 // marked times = distinct blocks, current run excluded

	cur    int64 // block of the current sequential run (-1 = none yet)
	curEnd int32 // time of the run's latest access

	readHist  []int64
	writeHist []int64
	// wbDiff is a difference array over capacities: a dirty eviction
	// observed for every capacity in [lo, hi] increments wbDiff[lo] and
	// decrements wbDiff[hi+1]; finalize prefix-sums it into wb.
	wbDiff []int64
	cold   int64
	maxD   int
}

// dirtyGap[b] is the largest stack distance among accesses to block b
// since (and excluding) the most recent write to b, clamped like every
// distance. A capacity-C cache evicted b after that write iff
// dirtyGap[b] >= C, flushing the dirty data then; so when b is next
// evicted at capacity C it carries dirty data iff C > dirtyGap[b]. An
// access at distance D therefore emits one write-back for every capacity
// in [dirtyGap+1, D] — the capacities that both evicted b during the gap
// (C <= D) and still held the dirty data (C > dirtyGap).

func newLevelPass(blockBytes uint64, p trace.Params, n int) *levelPass {
	blocks := int((p.FootprintBytes+p.WarmBytes)/blockBytes) + 1
	// Distances never exceed the distinct blocks touched, which is
	// bounded by both the address space and the stream length.
	maxHist := blocks
	if n < maxHist {
		maxHist = n
	}
	lp := &levelPass{
		blockBytes: blockBytes,
		n:          n,
		lastTime:   make([]int32, blocks),
		dirtyGap:   make([]int32, blocks),
		marks:      make(fenwick, n+1),
		cur:        -1,
		readHist:   make([]int64, maxHist+2),
		writeHist:  make([]int64, maxHist+2),
		wbDiff:     make([]int64, maxHist+3),
	}
	for i := range lp.dirtyGap {
		lp.dirtyGap[i] = -1
	}
	return lp
}

// step profiles one access at time t (1-based).
func (lp *levelPass) step(addr uint64, write bool, t int32) {
	b := int64(addr / lp.blockBytes)
	if b == lp.cur {
		// Same block as the previous access: distance 0, no tree work.
		lp.curEnd = t
		lp.record(b, 0, write)
		return
	}
	// The previous run's block becomes a marked, finalized block.
	if lp.cur >= 0 {
		lp.lastTime[lp.cur] = lp.curEnd
		lp.marks.add(int(lp.curEnd), 1)
		lp.nMarks++
	}
	last := lp.lastTime[b]
	if last == 0 {
		lp.cold++
		lp.cur, lp.curEnd = b, t
		if write {
			lp.dirtyGap[b] = 0
		}
		return
	}
	// Distinct blocks since b's previous access: every mark after that
	// time (b's own mark sits exactly at `last`, so it is excluded).
	d := int(lp.nMarks - lp.marks.sum(int(last)))
	lp.marks.add(int(last), -1)
	lp.nMarks--
	lp.cur, lp.curEnd = b, t
	if d > lp.maxD {
		lp.maxD = d
	}
	lp.record(b, d, write)
}

// record books an access to block b at stack distance d: histogram,
// write-back events, and the block's dirty state.
func (lp *levelPass) record(b int64, d int, write bool) {
	if write {
		lp.writeHist[d]++
	} else {
		lp.readHist[d]++
	}
	gap := lp.dirtyGap[b]
	if gap >= 0 && int(gap) < d {
		// Capacities in [gap+1, d] evicted b dirty during this reuse gap.
		lp.wbDiff[gap+1]++
		lp.wbDiff[d+1]--
	}
	switch {
	case write:
		lp.dirtyGap[b] = 0
	case gap >= 0 && int(gap) < d:
		lp.dirtyGap[b] = int32(d)
	}
}

// finalize closes the pass: the still-resident tail of the stream is
// scanned once so write-backs of blocks evicted during the run but never
// re-accessed are counted (the simulator counts those too), then the
// histograms collapse into CDFs.
func (lp *levelPass) finalize() levelCDF {
	if lp.cur >= 0 {
		lp.lastTime[lp.cur] = lp.curEnd
		lp.marks.add(int(lp.curEnd), 1)
		lp.nMarks++
	}
	// maxW is the deepest capacity a write-back range ends at: a tail
	// depth can exceed every reuse distance, and the wb CDF must reach it
	// so its decrement lands before at() clamps.
	maxW := lp.maxD
	for b, last := range lp.lastTime {
		gap := lp.dirtyGap[b]
		if last == 0 || gap < 0 {
			continue
		}
		// depth = distinct blocks accessed after b's final access: the
		// capacities in (depth, inf) still hold b at end of stream; the
		// capacities in [gap+1, depth] evicted it dirty during the run.
		depth := int(lp.nMarks - lp.marks.sum(int(last)))
		if int(gap) < depth {
			lp.wbDiff[gap+1]++
			lp.wbDiff[depth+1]--
			maxW = max(maxW, depth)
		}
	}

	maxD := lp.maxD
	out := levelCDF{
		blockBytes: int(lp.blockBytes),
		n:          int64(lp.n),
		cold:       lp.cold,
		readHits:   make([]int64, maxD+2),
		writeHits:  make([]int64, maxD+2),
		wb:         make([]int64, maxW+2),
	}
	var r, w, wb int64
	for c := 1; c < maxD+2; c++ {
		// Accesses at distance c-1 hit every capacity >= c.
		r += lp.readHist[c-1]
		w += lp.writeHist[c-1]
		out.readHits[c] = r
		out.writeHits[c] = w
	}
	for c := 1; c < maxW+2; c++ {
		wb += lp.wbDiff[c]
		out.wb[c] = wb
	}
	return out
}
