// Package trace generates synthetic memory-reference streams whose locality
// characteristics are calibrated to the benchmark suites named in Section 5
// of the paper (SPEC2000, SPECWEB, TPC-C).
//
// The real suites are not redistributable, and the paper's optimization
// consumes only the cache miss statistics they induce. Each generator here
// uses an independent-reference model with Zipf-distributed block
// popularity (which yields the familiar concave miss-rate-versus-size
// curves under LRU), a geometric sequential-run component for spatial
// locality, and a per-suite write fraction. The parameters are chosen so
// that L1 local miss rates are low and nearly flat from 4–64 KB while L2
// local miss rates fall visibly with capacity — the two properties the
// paper's two-level analysis relies on.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Access is one memory reference.
type Access struct {
	Addr  uint64
	Write bool
}

// Generator produces a deterministic, repeatable access stream.
type Generator interface {
	// Name identifies the workload.
	Name() string
	// Next returns the next access in the stream.
	Next() Access
	// Reset restarts the stream from the beginning.
	Reset()
}

// Params defines a synthetic workload.
type Params struct {
	Name string
	// FootprintBytes is the total touched memory (the working-set bound).
	FootprintBytes uint64
	// GranuleBytes is the popularity granule (an L2-block-sized chunk).
	GranuleBytes uint64
	// ZipfAlpha is the popularity skew; higher means stronger temporal
	// locality (alpha > 1 concentrates mass on a small hot set).
	ZipfAlpha float64
	// MeanRunLength is the mean sequential run length in 8-byte words
	// (spatial locality / streaming). Runs shorter than a cache block mostly
	// hit within the block; longer runs stream across blocks.
	MeanRunLength float64
	// WriteFraction is the probability an access is a store.
	WriteFraction float64
	// WarmBytes is the size of a secondary, uniformly re-referenced region
	// (heap arrays, buffer pools) living above the Zipf footprint. It gives
	// the workload a second locality scale: only caches comparable to
	// WarmBytes capture its reuse, which is what makes L2 miss rates fall
	// with capacity. Zero disables it.
	WarmBytes uint64
	// WarmFraction is the probability a new run starts in the warm region.
	WarmFraction float64
	// Seed makes the stream reproducible.
	Seed int64
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.FootprintBytes == 0 || p.GranuleBytes == 0 {
		return fmt.Errorf("trace: zero footprint or granule in %+v", p)
	}
	if p.FootprintBytes < p.GranuleBytes {
		return fmt.Errorf("trace: footprint smaller than granule")
	}
	if p.ZipfAlpha <= 0 {
		return fmt.Errorf("trace: ZipfAlpha must be positive, got %v", p.ZipfAlpha)
	}
	if p.MeanRunLength < 1 {
		return fmt.Errorf("trace: MeanRunLength must be >= 1, got %v", p.MeanRunLength)
	}
	if p.WriteFraction < 0 || p.WriteFraction > 1 {
		return fmt.Errorf("trace: WriteFraction out of [0,1]: %v", p.WriteFraction)
	}
	if p.WarmFraction < 0 || p.WarmFraction > 1 {
		return fmt.Errorf("trace: WarmFraction out of [0,1]: %v", p.WarmFraction)
	}
	if p.WarmFraction > 0 && p.WarmBytes < p.GranuleBytes {
		return fmt.Errorf("trace: WarmFraction set but WarmBytes (%d) below one granule", p.WarmBytes)
	}
	return nil
}

// The three calibrated workloads of the paper's evaluation.

// SPEC2000 returns a SPEC2000-like workload: strong temporal locality on a
// ~4 MB footprint.
func SPEC2000(seed int64) Params {
	return Params{
		Name:           "spec2000",
		FootprintBytes: 8 << 20,
		GranuleBytes:   64,
		ZipfAlpha:      1.55,
		MeanRunLength:  8,
		WriteFraction:  0.30,
		WarmBytes:      1 << 20,
		WarmFraction:   0.08,
		Seed:           seed,
	}
}

// SPECWEB returns a SPECWEB-like workload: larger footprint with more
// streaming (network buffers, file fragments).
func SPECWEB(seed int64) Params {
	return Params{
		Name:           "specweb",
		FootprintBytes: 16 << 20,
		GranuleBytes:   64,
		ZipfAlpha:      1.40,
		MeanRunLength:  16,
		WriteFraction:  0.25,
		WarmBytes:      2 << 20,
		WarmFraction:   0.12,
		Seed:           seed,
	}
}

// TPCC returns a TPC-C-like workload: a large, weakly skewed buffer-pool
// footprint with short runs and a high store fraction.
func TPCC(seed int64) Params {
	return Params{
		Name:           "tpcc",
		FootprintBytes: 32 << 20,
		GranuleBytes:   64,
		ZipfAlpha:      1.35,
		MeanRunLength:  4,
		WriteFraction:  0.35,
		WarmBytes:      4 << 20,
		WarmFraction:   0.12,
		Seed:           seed,
	}
}

// suites lists the evaluation's workloads in order; the i-th is seeded
// seed+i, so the three streams of one seed differ.
var suites = [...]func(seed int64) Params{SPEC2000, SPECWEB, TPCC}

// Suites returns the three calibrated workloads used throughout the
// evaluation.
func Suites(seed int64) []Params {
	ps := make([]Params, len(suites))
	for i, suite := range suites {
		ps[i] = suite(seed + int64(i))
	}
	return ps
}

// Suite returns the Suites(seed) entry named name and whether there is
// one: the one rule from a suite name to its stream. It allocates nothing.
func Suite(name string, seed int64) (Params, bool) {
	for i, suite := range suites {
		if p := suite(seed + int64(i)); p.Name == name {
			return p, true
		}
	}
	return Params{}, false
}

// Stream returns a streaming robustness workload (outside the paper's
// suite): long sequential runs over a large, weakly skewed footprint —
// nearly useless temporal locality, strong spatial locality.
func Stream(seed int64) Params {
	return Params{
		Name:           "stream",
		FootprintBytes: 64 << 20,
		GranuleBytes:   64,
		ZipfAlpha:      0.8,
		MeanRunLength:  64,
		WriteFraction:  0.20,
		Seed:           seed,
	}
}

// PointerChase returns a pointer-chasing robustness workload (outside the
// paper's suite): single-word accesses with no sequential component, the
// worst case for spatial locality.
func PointerChase(seed int64) Params {
	return Params{
		Name:           "ptrchase",
		FootprintBytes: 16 << 20,
		GranuleBytes:   64,
		ZipfAlpha:      1.2,
		MeanRunLength:  1.0001,
		WriteFraction:  0.10,
		Seed:           seed,
	}
}

// ExtraSuites returns the robustness workloads used by ablations and tests
// beyond the paper's evaluation.
//
//lint:allow deadexport trace's, sim's and profile's tests cover the robustness workloads with it
func ExtraSuites(seed int64) []Params {
	return []Params{Stream(seed + 10), PointerChase(seed + 11)}
}

// zipfGen draws block indices with P(i) proportional to 1/(i+1)^alpha using
// an inverse-CDF table. Deterministic for a given rand source.
type zipfGen struct {
	cdf []float64 // cumulative probabilities, len == N
}

func newZipfGen(n uint64, alpha float64) *zipfGen {
	if n == 0 {
		panic("trace: zipf over empty universe")
	}
	cdf := make([]float64, n)
	var sum float64
	for i := uint64(0); i < n; i++ {
		sum += math.Pow(float64(i+1), -alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfGen{cdf: cdf}
}

func (z *zipfGen) draw(rng *rand.Rand) uint64 {
	u := rng.Float64()
	idx := sort.SearchFloat64s(z.cdf, u)
	if idx >= len(z.cdf) {
		idx = len(z.cdf) - 1
	}
	return uint64(idx)
}

// generator implements Generator.
type generator struct {
	p    Params
	zipf *zipfGen
	rng  *rand.Rand

	// permute maps popularity rank to granule id so hot granules are
	// scattered through the address space rather than clustered at zero.
	permute []uint32

	// sequential-run state: runs advance word by word from lastAddr.
	runLeft  int
	lastAddr uint64
}

// New builds a generator for the workload.
func New(p Params) (Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.FootprintBytes / p.GranuleBytes
	g := &generator{p: p}
	g.zipf = newZipfGen(n, p.ZipfAlpha)
	g.initState()
	return g, nil
}

// MustNew is New for known-good parameters.
//
//lint:allow deadexport trace's and sim's tests build fixed, valid generators
func MustNew(p Params) Generator {
	g, err := New(p)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *generator) initState() {
	g.rng = rand.New(rand.NewSource(g.p.Seed))
	n := g.p.FootprintBytes / g.p.GranuleBytes
	g.permute = make([]uint32, n)
	for i := range g.permute {
		g.permute[i] = uint32(i)
	}
	// Fisher-Yates with the stream's own source keeps everything
	// reproducible from the single seed.
	for i := len(g.permute) - 1; i > 0; i-- {
		j := g.rng.Intn(i + 1)
		g.permute[i], g.permute[j] = g.permute[j], g.permute[i]
	}
	g.runLeft = 0
	g.lastAddr = 0
}

func (g *generator) Name() string { return g.p.Name }

func (g *generator) Reset() { g.initState() }

func (g *generator) Next() Access {
	var addr uint64
	switch {
	case g.runLeft > 0:
		// Continue the current sequential run one word at a time; spatial
		// locality within a cache block turns most of these into hits.
		g.runLeft--
		addr = g.lastAddr + 8
		if addr >= g.limit() {
			addr = g.regionBase()
		}
	case g.p.WarmFraction > 0 && g.rng.Float64() < g.p.WarmFraction:
		// Start a run at a uniformly random spot in the warm region.
		words := g.p.WarmBytes / 8
		addr = g.p.FootprintBytes + uint64(g.rng.Int63n(int64(words)))*8
		g.drawRunLength()
	default:
		rank := g.zipf.draw(g.rng)
		base := uint64(g.permute[rank]) * g.p.GranuleBytes
		// Scatter the run start within the granule at word granularity.
		addr = base + uint64(g.rng.Intn(int(g.p.GranuleBytes/8)))*8
		g.drawRunLength()
	}
	g.lastAddr = addr
	return Access{
		Addr:  addr,
		Write: g.rng.Float64() < g.p.WriteFraction,
	}
}

// drawRunLength samples a geometric run with the configured mean:
// P(continue) = 1 - 1/mean.
func (g *generator) drawRunLength() {
	pCont := 1 - 1/g.p.MeanRunLength
	g.runLeft = 0
	for g.rng.Float64() < pCont && g.runLeft < 256 {
		g.runLeft++
	}
}

// regionBase and limit keep sequential runs inside the region they started
// in (Zipf footprint or warm region).
func (g *generator) regionBase() uint64 {
	if g.lastAddr >= g.p.FootprintBytes {
		return g.p.FootprintBytes
	}
	return 0
}

func (g *generator) limit() uint64 {
	if g.lastAddr >= g.p.FootprintBytes {
		return g.p.FootprintBytes + g.p.WarmBytes
	}
	return g.p.FootprintBytes
}

// Collect materializes n accesses from the generator.
//
//lint:allow deadexport trace's and sim's tests and the root simulator benchmark replay collected accesses
func Collect(g Generator, n int) []Access {
	out := make([]Access, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
