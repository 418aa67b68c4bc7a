package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the shared time source for throughput math: the CLIs' progress
// tickers, the run manifests, and the dist coordinator's ETA all measure
// with the same kind of clock so their rates agree. A nil Clock means
// time.Now; tests inject a fake to pin rate and ETA arithmetic.
type Clock func() time.Time

// Now returns the clock's current time, defaulting to time.Now for a nil
// Clock — callers hold a Clock field and call Now without nil checks.
func (c Clock) Now() time.Time {
	if c == nil {
		return time.Now()
	}
	return c()
}

// DefBuckets is the default histogram bucket ladder: exponential upper
// bounds in seconds from 100µs to ~4 minutes, sized for this repository's
// spread — analytical grid points run ~0.4ms, trace-driven points ~75ms,
// and whole distributed work units run seconds to minutes.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 240,
}

// metric families are one of three types; the constants double as the
// TYPE strings in the exposition format.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Registry holds metric families keyed by name. Registration is
// idempotent: asking for an existing family with the same type, label
// names, and (for histograms) buckets returns the same Vec, so layers
// that share a registry (work.Run called per refine phase, the dist
// executor per unit) re-resolve their instruments cheaply. Re-registering
// a name with a different signature panics — that is a programming error,
// not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64 // histograms only; sorted ascending, +Inf implicit

	mu     sync.Mutex
	series map[string]*series
}

// series is one labeled instance of a family. Counters use bits (the
// integer count), gauges fn, histograms counts/sumUnits/sumNanos/count.
// Atomics keep the record path lock-free.
type series struct {
	values []string

	bits atomic.Uint64
	// fn backs a gauge evaluated at read time (WithFunc) — zero hot-path
	// cost for derived gauges like in-flight counts and rates.
	fn func() float64

	counts []atomic.Uint64 // per-bucket (non-cumulative), +Inf last
	// sumUnits and sumNanos accumulate the observation sum in fixed point
	// at 1e-9 resolution, split into whole observed units and the
	// remainder: integer atomic adds instead of a compare-and-swap loop
	// on float bits, which matters under worker contention on the
	// driver's per-item histogram, and an observation under one unit
	// touches only sumNanos. One observation may reach ±9.2e9 units; the
	// remainder grows by less than 1e9 per observation, so the sum stays
	// right for any count of such observations up to 9.2e9.
	sumUnits atomic.Int64
	sumNanos atomic.Int64
	count    atomic.Uint64
}

// lookup returns the family registered under name, creating it on first
// use and verifying the signature on every later one.
func (r *Registry) lookup(name, help, typ string, labels []string, buckets []float64) *family {
	if name == "" {
		panic("obs: metric name must be non-empty")
	}
	for _, l := range labels {
		if l == "" {
			panic(fmt.Sprintf("obs: metric %s has an empty label name", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.families == nil {
		r.families = make(map[string]*family)
	}
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different signature", name))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		typ:     typ,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// with resolves (creating on first use) the series for the given label
// values. The returned handle is stable: callers resolve once and record
// through atomics thereafter.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{values: append([]string(nil), values...)}
	if f.typ == typeHistogram {
		s.counts = make([]atomic.Uint64, len(f.buckets)+1)
	}
	f.series[key] = s
	return s
}

// seriesKey joins label values unambiguously (a raw join would collide
// on values containing the separator).
func seriesKey(values []string) string {
	key := ""
	for _, v := range values {
		key += fmt.Sprintf("%d:%s", len(v), v)
	}
	return key
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or re-resolves) a counter family: a monotonically
// increasing integer count per label combination.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, typeCounter, labels, nil)}
}

// Gauge registers (or re-resolves) a gauge family: an arbitrary float64
// per label combination, read from a callback at snapshot time.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, typeGauge, labels, nil)}
}

// Histogram registers (or re-resolves) a histogram family with the given
// bucket upper bounds (nil means DefBuckets; +Inf is implicit and must
// not be listed). Bounds must be sorted strictly ascending.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i, ub := range buckets {
		if math.IsInf(ub, +1) {
			panic(fmt.Sprintf("obs: histogram %s lists +Inf explicitly; it is implicit", name))
		}
		if i > 0 && buckets[i-1] >= ub {
			panic(fmt.Sprintf("obs: histogram %s buckets are not strictly ascending", name))
		}
	}
	return &HistogramVec{f: r.lookup(name, help, typeHistogram, labels, buckets)}
}

// CounterVec is a counter family; With resolves one labeled counter.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (one per label
// name, in registration order). Resolve once, record many.
func (v *CounterVec) With(values ...string) *Counter {
	return &Counter{s: v.f.with(values)}
}

// Counter is one labeled series of a counter family.
type Counter struct{ s *series }

// Inc adds 1.
func (c *Counter) Inc() { c.s.bits.Add(1) }

// Add adds n (n must be non-negative; counters are monotone).
func (c *Counter) Add(n uint64) { c.s.bits.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.s.bits.Load() }

// GaugeVec is a gauge family; WithFunc binds one labeled gauge.
type GaugeVec struct{ f *family }

// WithFunc binds the series for the given label values to a read-time
// callback: Snapshot (and therefore every scrape) reports fn() instead
// of a stored value, so derived gauges — in-flight counts, queue depth,
// rates — cost nothing on the hot path. Re-binding the same series
// replaces the callback (a driver run rebinding its gauges supersedes
// the previous run's). fn runs during Snapshot and must not call back
// into the registry.
func (v *GaugeVec) WithFunc(fn func() float64, values ...string) {
	s := v.f.with(values)
	v.f.mu.Lock()
	s.fn = fn
	v.f.mu.Unlock()
}

// HistogramVec is a histogram family; With resolves one labeled
// histogram.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{s: v.f.with(values), buckets: v.f.buckets}
}

// Histogram is one labeled series of a histogram family.
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records one value: a binary search picks the bucket, then
// three atomic adds (bucket count, fixed-point sum, total count), and a
// fourth for a value of one unit or more (the sum's whole units).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with ub >= v
	h.s.counts[i].Add(1)
	nanos := int64(math.Round(v * 1e9))
	if units := nanos / 1e9; units != 0 {
		h.s.sumUnits.Add(units)
		nanos -= units * 1e9
	}
	h.s.sumNanos.Add(nanos)
	h.s.count.Add(1)
}

// Snapshot is a point-in-time copy of a registry, ordered
// deterministically (families by name, series by label values) — the
// test-facing read API and the source the exposition handler renders
// from.
type Snapshot struct {
	Families []FamilySnapshot
}

// FamilySnapshot is one metric family in a snapshot.
type FamilySnapshot struct {
	Name   string
	Help   string
	Type   string // "counter", "gauge", "histogram"
	Labels []string
	Series []SeriesSnapshot
}

// SeriesSnapshot is one labeled series. Value carries counters (as a
// float) and gauges; Histogram is set for histogram families.
type SeriesSnapshot struct {
	LabelValues []string
	Value       float64
	Histogram   *HistogramSnapshot
}

// HistogramSnapshot is one histogram series: cumulative bucket counts
// (the +Inf bucket last, equal to Count), the sum of observations, and
// their total count.
type HistogramSnapshot struct {
	Buckets []Bucket
	Sum     float64
	Count   uint64
}

// Bucket is one cumulative histogram bucket: the count of observations
// less than or equal to UpperBound.
type Bucket struct {
	UpperBound float64 // +Inf for the last bucket
	Count      uint64
}

// Snapshot copies the registry's current state. Safe to call while
// writers record; each series is read at some instant during the call.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var snap Snapshot
	for _, f := range fams {
		fs := FamilySnapshot{
			Name:   f.name,
			Help:   f.help,
			Type:   f.typ,
			Labels: append([]string(nil), f.labels...),
		}
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			ss := SeriesSnapshot{LabelValues: append([]string(nil), s.values...)}
			switch f.typ {
			case typeCounter:
				ss.Value = float64(s.bits.Load())
			case typeGauge:
				if s.fn != nil {
					ss.Value = s.fn()
				}
			case typeHistogram:
				hs := &HistogramSnapshot{
					Sum:     float64(s.sumUnits.Load()) + float64(s.sumNanos.Load())/1e9,
					Count:   s.count.Load(),
					Buckets: make([]Bucket, len(f.buckets)+1),
				}
				cum := uint64(0)
				for i := range s.counts {
					cum += s.counts[i].Load()
					ub := math.Inf(+1)
					if i < len(f.buckets) {
						ub = f.buckets[i]
					}
					hs.Buckets[i] = Bucket{UpperBound: ub, Count: cum}
				}
				ss.Histogram = hs
			}
			fs.Series = append(fs.Series, ss)
		}
		f.mu.Unlock()
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// Family returns the named family from the snapshot, or nil.
//
//lint:allow deadexport obs's and work's tests read metric families by name
func (s Snapshot) Family(name string) *FamilySnapshot {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// Get returns the series with exactly the given label values from the
// family, or nil.
func (f *FamilySnapshot) Get(values ...string) *SeriesSnapshot {
	if f == nil {
		return nil
	}
	for i := range f.Series {
		if equalStrings(f.Series[i].LabelValues, values) {
			return &f.Series[i]
		}
	}
	return nil
}
