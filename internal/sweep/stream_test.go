package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// collect drains a stream into a slice and returns the wait verdict.
func collect[T any](ch <-chan T, wait func() error) ([]T, error) {
	var out []T
	for v := range ch {
		out = append(out, v)
	}
	return out, wait()
}

func TestStreamOrdered(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		ch, wait := Stream(context.Background(), 50, StreamConfig{Workers: workers},
			func(_ context.Context, i int) (int, error) { return i * i, nil })
		out, err := collect(ch, wait)
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

func TestStreamEmpty(t *testing.T) {
	ch, wait := Stream(context.Background(), 0, StreamConfig{},
		func(_ context.Context, i int) (int, error) { return 0, nil })
	out, err := collect(ch, wait)
	if err != nil || out != nil {
		t.Fatalf("empty stream: out=%v err=%v", out, err)
	}
}

// TestStreamBoundedLookahead pins the backpressure contract: with w
// workers and a consumer that has taken k items, no item beyond k+w may
// start.
func TestStreamBoundedLookahead(t *testing.T) {
	const n, workers = 40, 3
	var maxStarted atomic.Int64
	ch, wait := Stream(context.Background(), n, StreamConfig{Workers: workers},
		func(_ context.Context, i int) (int, error) {
			for {
				cur := maxStarted.Load()
				if int64(i) <= cur || maxStarted.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
			return i, nil
		})
	taken := 0
	for v := range ch {
		if v != taken {
			t.Fatalf("out of order: got %d at position %d", v, taken)
		}
		taken++
		// Everything in flight or buffered sits within the lookahead
		// window: one queued item per worker, plus one held by the emitter
		// and one mid-handoff in the dispatcher.
		if started := int(maxStarted.Load()); started > taken+workers+2 {
			t.Fatalf("item %d started with only %d consumed (%d workers)", started, taken, workers)
		}
		time.Sleep(time.Millisecond) // let workers run ahead if they could
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if taken != n {
		t.Fatalf("consumed %d of %d", taken, n)
	}
}

func TestStreamProgressSerialized(t *testing.T) {
	var calls []int
	ch, wait := Stream(context.Background(), 10, StreamConfig{
		Workers:  4,
		Progress: func(done, total int) { calls = append(calls, done) },
	}, func(_ context.Context, i int) (int, error) { return i, nil })
	if _, err := collect(ch, wait); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 10 {
		t.Fatalf("progress called %d times, want 10", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress out of order: call %d reported done=%d", i, d)
		}
	}
}

func TestStreamErrorStopsAndReports(t *testing.T) {
	boom := errors.New("boom")
	ch, wait := Stream(context.Background(), 100, StreamConfig{Workers: 2},
		func(_ context.Context, i int) (int, error) {
			if i == 5 {
				return 0, boom
			}
			return i, nil
		})
	out, err := collect(ch, wait)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("stream error lost: %v", err)
	}
	if want := "sweep: item 5: boom"; err.Error() != want {
		t.Fatalf("error = %q, want %q", err.Error(), want)
	}
	// Items before the failure stream out; nothing after it does.
	if len(out) > 5 {
		t.Fatalf("emitted %d items past the failure", len(out))
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestStreamCancelPrompt(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	ch, wait := Stream(ctx, 1000, StreamConfig{Workers: 4},
		func(ctx context.Context, i int) (int, error) {
			if i == 5 {
				<-ctx.Done() // one slow item holds until cancelled
			}
			return i, nil
		})
	taken := 0
	for range ch {
		taken++
		if taken == 3 {
			cancel()
		}
	}
	err := wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if taken == 1000 {
		t.Fatal("cancellation did not stop the stream")
	}
	if !atBaseline(base, 2) {
		t.Fatalf("goroutines leaked: %d now vs %d at baseline", runtime.NumGoroutine(), base)
	}
	cancel()
}

func TestStreamAbandonedConsumer(t *testing.T) {
	// A consumer that stops reading and cancels must still unwind all
	// workers (no goroutine leak) even with results ready to emit.
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	_, wait := Stream(ctx, 100, StreamConfig{Workers: 3},
		func(_ context.Context, i int) (int, error) { return i, nil })
	cancel()
	if err := wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if !atBaseline(base, 2) {
		t.Fatalf("goroutines leaked: %d now vs %d at baseline", runtime.NumGoroutine(), base)
	}
}

func TestStreamPanicRepanicsOnWait(t *testing.T) {
	ch, wait := Stream(context.Background(), 8, StreamConfig{Workers: 2},
		func(_ context.Context, i int) (int, error) {
			if i == 2 {
				panic("kaboom")
			}
			return i, nil
		})
	for range ch {
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic in fn was swallowed")
		}
	}()
	_ = wait()
}

func TestStreamMatchesMap(t *testing.T) {
	fn := func(_ context.Context, i int) (string, error) { return fmt.Sprintf("r%03d", i*7), nil }
	want, err := MapCtx(context.Background(), 64, 4, fn)
	if err != nil {
		t.Fatal(err)
	}
	ch, wait := Stream(context.Background(), 64, StreamConfig{Workers: 4}, fn)
	got, err := collect(ch, wait)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("stream returned %d results, map %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stream diverged from map at %d: %q vs %q", i, got[i], want[i])
		}
	}
}
