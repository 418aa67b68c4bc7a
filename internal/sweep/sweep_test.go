package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// atBaseline reports whether the goroutine count has returned to within
// slack of base, retrying briefly: worker goroutines are reaped
// asynchronously after MapCtx/Stream return.
func atBaseline(base, slack int) bool {
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= base+slack {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 64} {
		out, err := MapCtx(t.Context(), 50, workers, func(_ context.Context, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 50 {
			t.Fatalf("workers=%d: got %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, results out of order", workers, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := MapCtx(t.Context(), 0, 4, func(_ context.Context, i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("empty sweep: out=%v err=%v", out, err)
	}
}

func TestMapBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	_, err := MapCtx(t.Context(), 30, workers, func(_ context.Context, i int) (struct{}, error) {
		c := cur.Add(1)
		defer cur.Add(-1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent workers, want <= %d", p, workers)
	}
}

func TestMapErrorAggregation(t *testing.T) {
	boom := errors.New("boom")
	_, err := MapCtx(t.Context(), 20, 4, func(_ context.Context, i int) (int, error) {
		if i == 5 || i == 11 {
			return 0, fmt.Errorf("item-%d: %w", i, boom)
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error chain lost: %v", err)
	}
	// At least one failing item is reported with its index.
	if !strings.Contains(err.Error(), "item ") {
		t.Fatalf("error lacks item index: %v", err)
	}
}

func TestMapSequentialFailFast(t *testing.T) {
	calls := 0
	_, err := MapCtx(t.Context(), 10, 1, func(_ context.Context, i int) (int, error) {
		calls++
		if i == 3 {
			return 0, errors.New("stop")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if calls != 4 {
		t.Fatalf("sequential map ran %d items after error, want fail-fast at 4", calls)
	}
}

// TestMapErrorFormatConsistent pins the error wrapping contract: the
// sequential fast path and the parallel path produce the same
// "sweep: item %d: ..." text, and multiple failures join in input order.
func TestMapErrorFormatConsistent(t *testing.T) {
	boom := errors.New("boom")
	_, seqErr := MapCtx(t.Context(), 10, 1, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if seqErr == nil || seqErr.Error() != "sweep: item 3: boom" {
		t.Fatalf("sequential error = %v, want %q", seqErr, "sweep: item 3: boom")
	}
	if !errors.Is(seqErr, boom) {
		t.Fatalf("sequential error chain lost: %v", seqErr)
	}

	// Parallel: both items start before either fails (the barrier guarantees
	// it), so both errors are observed and must join in input order.
	var barrier sync.WaitGroup
	barrier.Add(2)
	_, parErr := MapCtx(t.Context(), 2, 2, func(_ context.Context, i int) (int, error) {
		barrier.Done()
		barrier.Wait()
		return 0, fmt.Errorf("fail-%d", i)
	})
	want := "sweep: item 0: fail-0\nsweep: item 1: fail-1"
	if parErr == nil || parErr.Error() != want {
		t.Fatalf("parallel error = %q, want %q", parErr, want)
	}
}

func TestMapCtxCancelPrompt(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	go func() {
		<-started
		cancel()
	}()
	var ran atomic.Int64
	const n = 1000
	_, err := MapCtx(ctx, n, 4, func(ctx context.Context, i int) (int, error) {
		ran.Add(1)
		select {
		case started <- struct{}{}:
		default:
		}
		if i < 4 {
			// The first wave blocks until cancellation reaches it: a
			// cancelled sweep must not wait for unscheduled items.
			<-ctx.Done()
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not carry context.Canceled: %v", err)
	}
	if got := ran.Load(); got == n {
		t.Fatalf("cancellation did not stop scheduling: all %d items ran", n)
	}
	if !atBaseline(base, 2) {
		t.Fatalf("goroutines leaked: %d now vs %d at baseline", runtime.NumGoroutine(), base)
	}
}

func TestMapCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := MapCtx(ctx, 50, 1, func(ctx context.Context, i int) (int, error) {
		ran.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("pre-cancelled sweep still ran %d items", ran.Load())
	}
}

func TestMapCtxJoinsItemAndCtxErrors(t *testing.T) {
	// Sequential path: a failing item on an already-expiring context must
	// surface both the item error and the context error.
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	_, err := MapCtx(ctx, 5, 1, func(ctx context.Context, i int) (int, error) {
		if i == 2 {
			cancel()
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want both item and ctx errors, got %v", err)
	}
}

func TestEachCtx(t *testing.T) {
	var sum atomic.Int64
	if err := EachCtx(context.Background(), 100, 8, func(_ context.Context, i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 4950 {
		t.Fatalf("sum = %d", sum.Load())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := EachCtx(ctx, 10, 2, func(_ context.Context, i int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic in fn was swallowed")
		}
	}()
	_, _ = MapCtx(t.Context(), 8, 4, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			panic("kaboom")
		}
		return i, nil
	})
}

func TestShards(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{0, 4}, {1, 4}, {5, 2}, {10, 3}, {10, 10}, {10, 99}, {1037, 8},
	} {
		shards := Shards(tc.n, tc.k)
		if tc.n == 0 {
			if shards != nil {
				t.Fatalf("Shards(0,%d) = %v", tc.k, shards)
			}
			continue
		}
		if len(shards) > tc.k || len(shards) > tc.n {
			t.Fatalf("Shards(%d,%d): %d shards", tc.n, tc.k, len(shards))
		}
		// Contiguous cover of [0,n) with near-equal sizes.
		next, min, max := 0, tc.n, 0
		for _, s := range shards {
			if s.Lo != next || s.Hi <= s.Lo {
				t.Fatalf("Shards(%d,%d): non-contiguous %v", tc.n, tc.k, shards)
			}
			next = s.Hi
			if s.Len() < min {
				min = s.Len()
			}
			if s.Len() > max {
				max = s.Len()
			}
		}
		if next != tc.n {
			t.Fatalf("Shards(%d,%d) covers [0,%d)", tc.n, tc.k, next)
		}
		if max-min > 1 {
			t.Fatalf("Shards(%d,%d): uneven sizes %d..%d", tc.n, tc.k, min, max)
		}
	}
}

func TestWorkersDefault(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("Workers must resolve non-positive requests to >= 1")
	}
	if Workers(5) != 5 {
		t.Fatal("Workers must pass explicit counts through")
	}
}

func TestMemoSingleflight(t *testing.T) {
	var m Memo[string, int]
	var builds atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Do("k", func() (int, error) {
				builds.Add(1)
				time.Sleep(2 * time.Millisecond)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("build ran %d times, want 1", builds.Load())
	}
}

func TestMemoErrorCached(t *testing.T) {
	var m Memo[int, int]
	calls := 0
	build := func() (int, error) { calls++; return 0, errors.New("nope") }
	if _, err := m.Do(7, build); err == nil {
		t.Fatal("want error")
	}
	if _, err := m.Do(7, build); err == nil {
		t.Fatal("want memoized error")
	}
	if calls != 1 {
		t.Fatalf("failed build retried: %d calls", calls)
	}
}

func TestMemoCancelledBuildRetried(t *testing.T) {
	var m Memo[int, int]
	calls := 0
	if _, err := m.Do(1, func() (int, error) { calls++; return 0, context.Canceled }); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	v, err := m.Do(1, func() (int, error) { calls++; return 99, nil })
	if err != nil || v != 99 {
		t.Fatalf("rebuild after cancellation: v=%d err=%v", v, err)
	}
	if calls != 2 {
		t.Fatalf("cancelled build not retried: %d calls", calls)
	}
	// A deterministic (non-ctx) failure stays memoized.
	if _, err := m.Do(1, func() (int, error) { calls++; return 0, errors.New("nope") }); err != nil {
		t.Fatalf("settled value lost: %v", err)
	}
	if calls != 2 {
		t.Fatalf("settled key rebuilt: %d calls", calls)
	}
}

func BenchmarkMapOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = MapCtx(b.Context(), 64, 0, func(_ context.Context, i int) (int, error) { return i, nil })
	}
}

// BenchmarkStreamOverhead measures the input-ordered streaming channel on
// a free kernel — the per-item cost every streamed sweep and the unified
// work driver pay on top of MapCtx.
func BenchmarkStreamOverhead(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		ch, wait := Stream(ctx, 64, StreamConfig{Workers: 4},
			func(_ context.Context, i int) (int, error) { return i, nil })
		for range ch {
		}
		if err := wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRangeWireFormat pins Range's JSON form: it is part of the
// distributed-sweep wire protocol (work units carry their shard range), so
// the field names must not drift.
func TestRangeWireFormat(t *testing.T) {
	data, err := json.Marshal(Range{Lo: 3, Hi: 9})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"lo":3,"hi":9}` {
		t.Fatalf("Range wire form = %s, want {\"lo\":3,\"hi\":9}", data)
	}
	var r Range
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	if r != (Range{Lo: 3, Hi: 9}) {
		t.Fatalf("round trip = %+v", r)
	}
}
