// Package sim is a trace-driven set-associative cache simulator used to
// gather the "cache access statistics for each L1 and L2 cache size
// combination" that Section 5 of the paper derives from architectural
// simulation.
//
// It supports LRU/FIFO/random replacement, write-back or write-through
// policies, and a two-level hierarchy in which the L2 observes exactly the
// L1 miss (and write-back) stream.
package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/cachecfg"
	"repro/internal/trace"
)

// ReplPolicy selects the victim within a set.
type ReplPolicy int

const (
	// LRU evicts the least recently used way.
	LRU ReplPolicy = iota
	// FIFO evicts the oldest-filled way.
	FIFO
	// Random evicts a uniformly random way.
	Random
)

// String names the policy.
func (p ReplPolicy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "random"
	}
	return fmt.Sprintf("repl(%d)", int(p))
}

// WritePolicy selects how stores interact with the cache.
type WritePolicy int

const (
	// WriteBack allocates on write misses and writes dirty victims back.
	WriteBack WritePolicy = iota
	// WriteThrough propagates every store and does not allocate on write
	// misses.
	WriteThrough
)

// String names the policy.
func (p WritePolicy) String() string {
	if p == WriteThrough {
		return "write-through"
	}
	return "write-back"
}

// Stats counts simulator events.
type Stats struct {
	Accesses   uint64
	Reads      uint64
	Writes     uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
	Evictions  uint64
}

// MissRate returns misses/accesses (0 for an untouched cache).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastUse uint64
	arrival uint64
}

// Cache is one level of simulated cache.
type Cache struct {
	Cfg    cachecfg.Config
	Repl   ReplPolicy
	Write  WritePolicy
	Stats  Stats
	sets   [][]line
	clock  uint64
	rng    *rand.Rand
	offLSB uint
	idxLSB uint
	idxMsk uint64
}

// New builds a simulated cache.
func New(cfg cachecfg.Config, repl ReplPolicy, write WritePolicy) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		Cfg:   cfg,
		Repl:  repl,
		Write: write,
		rng:   rand.New(rand.NewSource(1)),
	}
	c.sets = make([][]line, cfg.Sets())
	backing := make([]line, cfg.Sets()*cfg.Assoc)
	for i := range c.sets {
		c.sets[i], backing = backing[:cfg.Assoc:cfg.Assoc], backing[cfg.Assoc:]
	}
	c.offLSB = uint(cfg.OffsetBits())
	c.idxLSB = c.offLSB
	c.idxMsk = uint64(cfg.Sets() - 1)
	return c, nil
}

// MustNew panics on configuration errors.
//
//lint:allow deadexport sim's tests and examples and the root cache benchmark build fixed, valid caches
func MustNew(cfg cachecfg.Config, repl ReplPolicy, write WritePolicy) *Cache {
	c, err := New(cfg, repl, write)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Cache) index(addr uint64) uint64 { return (addr >> c.idxLSB) & c.idxMsk }
func (c *Cache) tag(addr uint64) uint64   { return addr >> (c.idxLSB + uint(log2(len(c.sets)))) }

// AccessResult reports what one access did.
type AccessResult struct {
	Hit bool
	// WritebackAddr is set when a dirty victim was evicted; the address is
	// the victim's block address (for forwarding to the next level).
	Writeback     bool
	WritebackAddr uint64
	// Allocated reports whether the access filled a line.
	Allocated bool
}

// Access performs one read or write and returns what happened.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	c.clock++
	c.Stats.Accesses++
	if write {
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
	}

	set := c.sets[c.index(addr)]
	tag := c.tag(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.Stats.Hits++
			set[i].lastUse = c.clock
			if write && c.Write == WriteBack {
				set[i].dirty = true
			}
			return AccessResult{Hit: true}
		}
	}
	c.Stats.Misses++

	// Write-through caches do not allocate on write misses.
	if write && c.Write == WriteThrough {
		return AccessResult{}
	}
	return c.fill(addr, write)
}

// fill allocates a line for addr, evicting a victim if needed.
func (c *Cache) fill(addr uint64, write bool) AccessResult {
	idx := c.index(addr)
	set := c.sets[idx]
	tag := c.tag(addr)

	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	res := AccessResult{Allocated: true}
	if victim < 0 {
		victim = c.pickVictim(set)
		c.Stats.Evictions++
		if set[victim].dirty {
			c.Stats.Writebacks++
			res.Writeback = true
			res.WritebackAddr = c.reassemble(set[victim].tag, idx)
		}
	}
	set[victim] = line{
		tag:     tag,
		valid:   true,
		dirty:   write && c.Write == WriteBack,
		lastUse: c.clock,
		arrival: c.clock,
	}
	return res
}

func (c *Cache) pickVictim(set []line) int {
	switch c.Repl {
	case Random:
		return c.rng.Intn(len(set))
	case FIFO:
		v := 0
		for i := range set {
			if set[i].arrival < set[v].arrival {
				v = i
			}
		}
		return v
	default: // LRU
		v := 0
		for i := range set {
			if set[i].lastUse < set[v].lastUse {
				v = i
			}
		}
		return v
	}
}

// reassemble rebuilds a block address from tag and set index.
func (c *Cache) reassemble(tag, idx uint64) uint64 {
	return tag<<(c.idxLSB+uint(log2(len(c.sets)))) | idx<<c.idxLSB
}

// Hierarchy is a two-level cache system: the L2 sees the L1 miss stream and
// the L1's dirty write-backs.
type Hierarchy struct {
	L1 *Cache
	L2 *Cache
	// MemAccesses counts references that fell through both levels.
	MemAccesses uint64
}

// NewHierarchy wires an L1 and an L2.
//
//lint:allow deadexport the reference two-level simulator of sim's tests and ExampleHierarchy
func NewHierarchy(l1, l2 *Cache) *Hierarchy {
	return &Hierarchy{L1: l1, L2: l2}
}

// Access sends one reference through the hierarchy.
func (h *Hierarchy) Access(addr uint64, write bool) {
	r1 := h.L1.Access(addr, write)
	if r1.Writeback {
		// The L1 victim is written into the L2 (allocate-on-writeback).
		r2 := h.L2.Access(r1.WritebackAddr, true)
		if !r2.Hit {
			h.MemAccesses++ // L2 write miss fetched the block
		}
	}
	if r1.Hit {
		return
	}
	r2 := h.L2.Access(addr, write)
	if !r2.Hit {
		h.MemAccesses++
	}
	if r2.Writeback {
		h.MemAccesses++
	}
}

// Run drives n accesses from the generator through the hierarchy.
//
//lint:allow deadexport sim's hierarchy tests
func (h *Hierarchy) Run(g trace.Generator, n int) {
	for i := 0; i < n; i++ {
		a := g.Next()
		h.Access(a.Addr, a.Write)
	}
}

// LocalMissRates returns (L1 local, L2 local) miss rates.
//
//lint:allow deadexport sim's hierarchy tests
func (h *Hierarchy) LocalMissRates() (float64, float64) {
	return h.L1.Stats.MissRate(), h.L2.Stats.MissRate()
}

// GlobalL2MissRate returns L2 misses per L1 access.
//
//lint:allow deadexport sim's hierarchy tests
func (h *Hierarchy) GlobalL2MissRate() float64 {
	if h.L1.Stats.Accesses == 0 {
		return 0
	}
	return float64(h.L2.Stats.Misses) / float64(h.L1.Stats.Accesses)
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
