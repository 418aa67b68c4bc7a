package main

import (
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/obs"
)

// clock is the benchmark's single time source. obs.Clock is the injected
// clock the repository's rates and ETAs already share; its zero value
// reads the wall clock.
var clock obs.Clock

// seconds, millis and micros convert a duration to the float units the
// metrics report.
func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" definition), or 0 for no samples. xs is
// not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// heapSampler tracks the peak of live heap objects, read from
// runtime/metrics on the emitter path.
type heapSampler struct {
	sample []metrics.Sample
	peak   uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{sample: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapSampler) read() {
	metrics.Read(h.sample)
	if v := h.sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > h.peak {
		h.peak = v.Uint64()
	}
}

func (h *heapSampler) peakMB() float64 { return float64(h.peak) / (1 << 20) }
