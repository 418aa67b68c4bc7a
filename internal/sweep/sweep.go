// Package sweep is the repository's concurrent design-space sweep engine: a
// bounded worker pool with deterministic, input-ordered result collection
// and error aggregation, plus the contiguous-shard and memoization helpers
// the experiment and optimization layers build on.
//
// The paper's evaluation is embarrassingly parallel — every L1xL2 size
// combination, every assignment scheme, and every workload simulation is
// independent — so the engine's only hard job is keeping parallel output
// byte-identical to sequential output. Three rules make that hold
// everywhere this package is used:
//
//   - results are written into a slice indexed by input position, never
//     appended in completion order;
//   - reductions over shards run in shard (input) order with the same
//     strict-inequality tie-breaking the sequential scans use, so the
//     earliest candidate still wins ties;
//   - randomized work re-seeds per shard (e.g. one trace generator per L1
//     size) instead of sharing one mutable RNG stream.
//
// The engine is context-first: MapCtx/EachCtx stop scheduling when the
// context is cancelled and report ctx.Err() joined after any per-item
// errors, and Stream delivers results in input order over a channel with
// bounded buffering for result sets too large to hold in memory.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count request: values <= 0 select GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Progress observes fan-out completion: it is called once per completed
// item with the number of items done so far and the total. The count is
// maintained atomically, but calls may arrive concurrently from worker
// goroutines (Stream serializes them on the emitter); implementations that
// write shared state must synchronize.
type Progress func(done, total int)

// itemErr wraps one failed item with its input index in the engine's
// canonical format. Every path — sequential, parallel, streaming — reports
// failures through this wrapper so error text never depends on the worker
// count that observed the failure.
func itemErr(i int, err error) error {
	return fmt.Errorf("sweep: item %d: %w", i, err)
}

// joinErrs folds per-item errors (indexed by input position) and an
// optional context error into one error: item errors first in input order,
// the context error last.
func joinErrs(errs []error, ctxErr error) error {
	all := make([]error, 0, len(errs)+1)
	for _, e := range errs {
		if e != nil {
			all = append(all, e)
		}
	}
	if ctxErr != nil {
		all = append(all, ctxErr)
	}
	return errors.Join(all...)
}

// MapCtx runs fn(0..n-1) across at most workers goroutines and returns the
// results in input order. With workers <= 1 (or n <= 1) it degenerates to a
// plain loop, so single-threaded runs pay no synchronization cost.
//
// On error the sweep stops scheduling new items and MapCtx returns every
// error observed, each wrapped as "sweep: item %d: ..." and joined in input
// order; already-running items finish first. Which items got to run (and
// therefore the error text) can depend on the worker count — the
// identical-output guarantee covers success results only. A panic in fn is
// re-raised on the calling goroutine.
//
// Cancellation stops scheduling new items once ctx is done (already-running
// items finish first) and returns ctx's error joined after any per-item
// errors. fn receives ctx so long-running items can return early too.
func MapCtx[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	out := make([]T, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, joinErrs(nil, err)
			}
			v, err := fn(ctx, i)
			if err != nil {
				return nil, joinErrs([]error{itemErr(i, err)}, ctx.Err())
			}
			out[i] = v
		}
		return out, nil
	}

	errs := make([]error, n)
	var (
		next    atomic.Int64
		failed  atomic.Bool
		panicMu sync.Mutex
		panicV  any
		wg      sync.WaitGroup
	)
	done := ctx.Done()
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicV == nil {
						panicV = r
					}
					panicMu.Unlock()
					failed.Store(true)
				}
			}()
			for !failed.Load() {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := fn(ctx, i)
				if err != nil {
					errs[i] = itemErr(i, err)
					failed.Store(true)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
	if failed.Load() || ctx.Err() != nil {
		return nil, joinErrs(errs, ctx.Err())
	}
	return out, nil
}

// EachCtx is MapCtx for side-effect-only work.
//
//lint:allow deadexport perfbench (a separate module) and sweep's tests call it
func EachCtx(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	_, err := MapCtx(ctx, n, workers, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, fn(ctx, i)
	})
	return err
}

// Range is a half-open index interval [Lo, Hi). The JSON form ({"lo","hi"})
// is part of the distributed-sweep wire format: work units carry the shard
// range they cover (internal/dist).
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of indices in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Shards splits [0, n) into at most k contiguous, input-ordered ranges of
// near-equal size. Contiguity matters: an ordered reduction over shard-local
// results then visits candidates in exactly the sequential scan order, which
// is what keeps tie-breaking (and therefore output bytes) identical.
func Shards(n, k int) []Range {
	if n <= 0 {
		return nil
	}
	k = Workers(k)
	if k > n {
		k = n
	}
	out := make([]Range, 0, k)
	lo := 0
	for i := 0; i < k; i++ {
		size := (n - lo) / (k - i)
		out = append(out, Range{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// memoEntry is one singleflight slot of a Memo. Its mutex doubles as the
// wait point for concurrent callers of the same key.
type memoEntry[V any] struct {
	mu      sync.Mutex
	settled bool
	val     V
	err     error
}

// Memo is a concurrent memoization map: Do builds each key exactly once,
// with concurrent callers for the same key blocking on the first build
// instead of duplicating it. The zero value is ready to use. It replaces the
// build-under-global-lock caching that serialized experiment fan-out.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

// Do returns the memoized value for key, invoking build on first use.
// Deterministic failures are memoized too — retrying them would only
// repeat the failure — but context cancellation is not: a build aborted by
// a cancelled run must not poison the cache for later, uncancelled
// callers, so the next Do for the key rebuilds.
func (mo *Memo[K, V]) Do(key K, build func() (V, error)) (V, error) {
	mo.mu.Lock()
	if mo.m == nil {
		mo.m = make(map[K]*memoEntry[V])
	}
	e, ok := mo.m[key]
	if !ok {
		e = &memoEntry[V]{}
		mo.m[key] = e
	}
	mo.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.settled {
		return e.val, e.err
	}
	val, err := build()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		var zero V
		return zero, err
	}
	e.val, e.err, e.settled = val, err, true
	return e.val, e.err
}
