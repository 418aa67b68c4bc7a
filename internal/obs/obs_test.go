package obs

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := r.Gauge("depth", "queue depth", "kind")
	n := 7
	v.WithFunc(func() float64 { return float64(n) }, "toy")
	if g := r.Snapshot().Family("depth").Get("toy"); g == nil || g.Value != 7 {
		t.Fatalf("func gauge = %+v, want 7", g)
	}
	n = 3
	if g := r.Snapshot().Family("depth").Get("toy"); g.Value != 3 {
		t.Fatalf("func gauge after change = %v, want 3 (evaluated at read time)", g.Value)
	}
	// Re-binding the same series replaces the callback.
	v.WithFunc(func() float64 { return -1 }, "toy")
	if g := r.Snapshot().Family("depth").Get("toy"); g.Value != -1 {
		t.Fatalf("rebound func gauge = %v, want -1", g.Value)
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("items_total", "items", "kind").With("toy")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	r.Gauge("inflight", "in flight").WithFunc(func() float64 { return 2.5 })
	if g := r.Snapshot().Family("inflight").Get(); g == nil || g.Value != 2.5 {
		t.Fatalf("gauge = %+v, want 2.5", g)
	}
}

// TestHistogramBucketBoundaries pins the le semantics: an observation
// lands in the first bucket whose upper bound is >= the value — bounds
// are inclusive — and the +Inf bucket counts everything.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{0.01, 0.1, 1}).With()

	h.Observe(0.01) // exactly on a bound → that bucket, not the next
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(1.0)
	h.Observe(50) // beyond the last bound → +Inf only

	snap := r.Snapshot().Family("lat").Get()
	if snap == nil || snap.Histogram == nil {
		t.Fatal("histogram series missing from snapshot")
	}
	hs := snap.Histogram
	wantCum := []uint64{2, 3, 4, 5} // le=0.01, le=0.1, le=1, le=+Inf
	if len(hs.Buckets) != len(wantCum) {
		t.Fatalf("bucket count = %d, want %d", len(hs.Buckets), len(wantCum))
	}
	for i, want := range wantCum {
		if hs.Buckets[i].Count != want {
			t.Errorf("bucket %d (le=%v) = %d, want %d", i, hs.Buckets[i].UpperBound, hs.Buckets[i].Count, want)
		}
	}
	if !math.IsInf(hs.Buckets[3].UpperBound, +1) {
		t.Errorf("last bucket bound = %v, want +Inf", hs.Buckets[3].UpperBound)
	}
	if hs.Count != 5 {
		t.Errorf("count = %d, want 5", hs.Count)
	}
	if want := 0.01 + 0.005 + 0.05 + 1.0 + 50; math.Abs(hs.Sum-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", hs.Sum, want)
	}
}

// TestHistogramSumDoesNotWrap observes 300 one-year values (the cap
// /v1/result puts on one exec_ms): 9.5e9 s, past the ±9.2e9 units a
// single int64 of nanounits holds. The sum must still read 300 years.
func TestHistogramSumDoesNotWrap(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", []float64{1}).With()
	const year = 365 * 24 * 60 * 60.0
	for i := 0; i < 300; i++ {
		h.Observe(year)
	}
	got := r.Snapshot().Family("h").Get().Histogram.Sum
	if want := 300 * year; math.Abs(got-want) > 1e-9*want {
		t.Errorf("sum of 300 one-year observations = %.6e s, want %.6e s", got, want)
	}
}

func TestHistogramRejectsBadBuckets(t *testing.T) {
	r := NewRegistry()
	for name, buckets := range map[string][]float64{
		"unsorted": {1, 0.5},
		"dup":      {1, 1},
		"inf":      {1, math.Inf(+1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s buckets: no panic", name)
				}
			}()
			r.Histogram("bad_"+name, "", buckets)
		}()
	}
}

// TestLabelHandling pins the label rules: distinct values are distinct
// series, registration is idempotent for identical signatures, and
// mismatched arity or changed signatures panic.
func TestLabelHandling(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("c", "help", "kind", "fidelity")
	v.With("grid", "trace").Inc()
	v.With("grid", "analytical").Add(2)
	v.With("grid", "trace").Inc()

	// Same (name, type, labels) re-registers onto the same family.
	again := r.Counter("c", "help", "kind", "fidelity")
	if got := again.With("grid", "trace").Value(); got != 2 {
		t.Fatalf("re-resolved counter = %d, want 2", got)
	}

	f := r.Snapshot().Family("c")
	if len(f.Series) != 2 {
		t.Fatalf("series count = %d, want 2", len(f.Series))
	}
	// Snapshot order is deterministic: series sorted by label values.
	if f.Series[0].LabelValues[1] != "analytical" || f.Series[1].LabelValues[1] != "trace" {
		t.Fatalf("series order = %v, %v", f.Series[0].LabelValues, f.Series[1].LabelValues)
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("wrong arity", func() { v.With("grid") })
	mustPanic("type change", func() { r.Gauge("c", "help", "kind", "fidelity") })
	mustPanic("label change", func() { r.Counter("c", "help", "kind") })
	mustPanic("empty name", func() { r.Counter("", "help") })
}

// TestSeriesKeyCollision guards the label-value join: values that would
// collide under a naive separator join must stay distinct series.
func TestSeriesKeyCollision(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("c", "", "a", "b")
	v.With("x,", "y").Inc()
	v.With("x", ",y").Inc()
	if n := len(r.Snapshot().Family("c").Series); n != 2 {
		t.Fatalf("series count = %d, want 2", n)
	}
}

func TestHandlerExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("work_items_total", "completed items", "kind").With("scenario-batch").Add(7)
	r.Gauge("inflight", "items in flight").WithFunc(func() float64 { return 1.5 })
	h := r.Histogram("work_item_seconds", "per-item latency", []float64{0.1, 1}, "kind")
	h.With("toy").Observe(0.05)
	h.With("toy").Observe(2)
	// A label value that needs escaping.
	r.Counter("esc", "", "v").With("a\"b\\c\nd").Inc()

	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE work_items_total counter\n",
		`work_items_total{kind="scenario-batch"} 7` + "\n",
		"# HELP inflight items in flight\n",
		"inflight 1.5\n",
		"# TYPE work_item_seconds histogram\n",
		`work_item_seconds_bucket{kind="toy",le="0.1"} 1` + "\n",
		`work_item_seconds_bucket{kind="toy",le="1"} 1` + "\n",
		`work_item_seconds_bucket{kind="toy",le="+Inf"} 2` + "\n",
		`work_item_seconds_sum{kind="toy"} 2.05` + "\n",
		`work_item_seconds_count{kind="toy"} 2` + "\n",
		`esc{v="a\"b\\c\nd"} 1` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
}

// TestHandlerDeterministic pins scrape-to-scrape stability: identical
// registry state renders identical bytes.
func TestHandlerDeterministic(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("c", "", "k")
	for _, k := range []string{"b", "a", "c"} {
		v.With(k).Inc()
	}
	render := func() string {
		var b strings.Builder
		renderText(&b, r.Snapshot())
		return b.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("non-deterministic render:\n%s\nvs\n%s", a, b)
	}
	if text := render(); strings.Index(text, `{k="a"}`) > strings.Index(text, `{k="b"}`) {
		t.Fatalf("series not sorted:\n%s", text)
	}
}

func TestDebugHandlerServesPprof(t *testing.T) {
	srv := httptest.NewServer(DebugHandler(NewRegistry()))
	defer srv.Close()
	for path, want := range map[string]int{
		"/metrics":          http.StatusOK,
		"/debug/pprof/":     http.StatusOK,
		"/debug/pprof/heap": http.StatusOK,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("up", "").With().Inc()
	addr, stop, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "up 1\n") {
		t.Fatalf("metrics body:\n%s", body)
	}
}

func TestClockDefault(t *testing.T) {
	var c Clock
	before := time.Now()
	got := c.Now()
	if got.Before(before) || time.Since(got) > time.Minute {
		t.Fatalf("nil Clock.Now = %v", got)
	}
	fixed := time.Unix(42, 0)
	c = func() time.Time { return fixed }
	if !c.Now().Equal(fixed) {
		t.Fatal("injected clock not used")
	}
}

// TestConcurrentRecording exercises the atomic hot path under the race
// detector and checks nothing is lost.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", "").With()
	h := r.Histogram("h", "", []float64{1}).With()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.5)
				_ = r.Snapshot() // readers race writers safely
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if hs := r.Snapshot().Family("h").Get().Histogram; hs.Count != workers*per || hs.Sum != workers*per*0.5 {
		t.Errorf("histogram count/sum = %d/%v", hs.Count, hs.Sum)
	}
}
