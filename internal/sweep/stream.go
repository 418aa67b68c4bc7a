package sweep

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// StreamConfig tunes a Stream run. The zero value is usable: GOMAXPROCS
// workers, no progress hook.
type StreamConfig struct {
	// Workers bounds concurrent fn invocations (0 = GOMAXPROCS). It also
	// bounds how many items may be in flight or completed but not yet
	// consumed, which is the stream's backpressure: a slow consumer
	// throttles the workers instead of the whole result set accumulating
	// in memory.
	Workers int
	// Progress, when non-nil, is called after each item is emitted with
	// (items emitted, total). Calls come from the single emitter goroutine,
	// so they are serialized.
	Progress Progress
}

// errSkipped marks items that were claimed by a worker but never run
// because the stream had already failed or been cancelled. It is internal
// bookkeeping: skipped items are not reported as errors.
var errSkipped = errors.New("sweep: item skipped after failure")

// streamItem is one in-flight unit of a Stream: the promise the emitter
// waits on, in input order.
type streamItem[T any] struct {
	i    int
	done chan struct{}
	val  T
	err  error
}

// Stream runs fn(0..n-1) across a bounded worker pool and delivers results
// over the returned channel in input order as they complete, without ever
// buffering more results than it has workers — the streaming complement
// to MapCtx for result sets too large to hold in memory.
//
// The consumer must drain the channel (it closes when the stream ends) and
// then call wait, which blocks until all workers have exited and returns
// the verdict: nil on success, or per-item errors joined in input order
// with ctx's error last, exactly like MapCtx. On the first error or on
// cancellation the stream stops scheduling new items and stops emitting;
// already-running items finish first. A panic in fn is re-raised from wait.
func Stream[T any](ctx context.Context, n int, cfg StreamConfig, fn func(ctx context.Context, i int) (T, error)) (results <-chan T, wait func() error) {
	out := make(chan T)
	if n <= 0 {
		close(out)
		err := ctx.Err()
		if err != nil {
			err = joinErrs(nil, err)
		}
		return out, func() error { return err }
	}
	w := Workers(cfg.Workers)
	if w > n {
		w = n
	}
	var (
		failed   atomic.Bool
		panicMu  sync.Mutex
		panicV   any
		wg       sync.WaitGroup
		finalErr error
		finished = make(chan struct{})
	)
	pending := make(chan *streamItem[T], w) // input-ordered; caps lookahead
	work := make(chan *streamItem[T])

	// Dispatcher: creates items in input order. The send into pending
	// blocks once w items are in flight or unconsumed, which is what
	// bounds the stream's memory footprint.
	go func() {
		defer close(pending)
		defer close(work)
		for i := 0; i < n; i++ {
			if failed.Load() {
				return
			}
			it := &streamItem[T]{i: i, done: make(chan struct{})}
			select {
			case <-ctx.Done():
				return
			case pending <- it:
			}
			select {
			case <-ctx.Done():
				// Queued for the emitter but never handed to a worker:
				// resolve the promise so the emitter does not block.
				it.err = errSkipped
				close(it.done)
				return
			case work <- it:
			}
		}
	}()

	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicV == nil {
								panicV = r
							}
							panicMu.Unlock()
							it.err = errSkipped
							failed.Store(true)
						}
						close(it.done)
					}()
					if failed.Load() || ctx.Err() != nil {
						it.err = errSkipped
						return
					}
					it.val, it.err = fn(ctx, it.i)
					if it.err != nil {
						failed.Store(true)
					}
				}()
			}
		}()
	}

	// Emitter: resolves promises in input order, forwarding values until
	// the first failure, then draining the rest so workers are never
	// leaked.
	go func() {
		defer close(finished)
		defer close(out)
		var errs []error
		emitted := 0
		emitting := true
		for it := range pending {
			<-it.done
			if it.err != nil {
				emitting = false
				if it.err != errSkipped {
					errs = append(errs, itemErr(it.i, it.err))
				}
				continue
			}
			if !emitting {
				continue
			}
			select {
			case out <- it.val:
				emitted++
				if cfg.Progress != nil {
					cfg.Progress(emitted, n)
				}
			case <-ctx.Done():
				emitting = false
			}
		}
		wg.Wait()
		finalErr = joinErrs(errs, ctx.Err())
	}()

	return out, func() error {
		<-finished
		panicMu.Lock()
		p := panicV
		panicMu.Unlock()
		if p != nil {
			panic(p)
		}
		return finalErr
	}
}
