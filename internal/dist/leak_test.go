package dist

import (
	"context"
	"errors"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/dist/store"
)

// settleGoroutines snapshots the goroutine count and returns a check that
// fails the test if the count has not returned to the snapshot within a
// grace period (HTTP transport read loops take a moment to wind down after
// connections close).
func settleGoroutines(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC()
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// leakRun is one service lifecycle the leak tests tear down by hand
// rather than through t.Cleanup, so the goroutine check runs after it.
type leakRun struct {
	s   *Service
	srv *httptest.Server
	id  string
}

// startLeakRun boots a service under ctx over a temp store, with the toy
// batch of n items submitted.
func startLeakRun(t *testing.T, ctx context.Context, n int, cfg ServiceConfig) leakRun {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store, cfg.RetryAfter = st, 5*time.Millisecond
	s, err := NewService(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bs, _, err := s.Submit(toyBatch{n})
	if err != nil {
		t.Fatal(err)
	}
	return leakRun{s: s, srv: httptest.NewServer(s.Handler()), id: bs.ID}
}

// stop closes the run's server and service.
func (r leakRun) stop() {
	r.srv.CloseClientConnections()
	r.srv.Close()
	r.s.Close()
}

// TestNoLeakWhenWorkerDies checks the service leaks nothing when a worker
// takes a lease and dies: the batch completes via re-lease and every
// goroutine exits once the service stops.
func TestNoLeakWhenWorkerDies(t *testing.T) {
	check := settleGoroutines(t)

	ctx, cancel := context.WithCancel(context.Background())
	r := startLeakRun(t, ctx, 6, ServiceConfig{Units: 3, LeaseTTL: 50 * time.Millisecond})
	if lease := leaseRaw(t, r.srv, "doomed"); lease.Unit == nil {
		t.Fatal("doomed worker got no unit")
	}
	// The doomed worker never heartbeats again; a live one finishes the
	// batch after the lease expires.
	workersDone := make(chan error, 1)
	// Workers outlive the service context: they exit on the done lease.
	go func() { workersDone <- runWorkers(context.Background(), r.srv, 1, toyExec(-1)) }()
	if _, err := results(ctx, r.s, r.id); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-workersDone; err != nil {
		t.Fatal(err)
	}
	r.stop()
	check()
}

// TestNoLeakWhenConsumerAbandons checks the reader and workers unwind when
// the result consumer walks away mid-stream: cancelling the run context is
// enough, no draining required.
func TestNoLeakWhenConsumerAbandons(t *testing.T) {
	check := settleGoroutines(t)

	ctx, cancel := context.WithCancel(context.Background())
	// Workers slow enough that the consumer can abandon a running batch.
	slow := func(uctx context.Context, u Unit) ([][]byte, error) {
		if err := sleep(uctx, 10*time.Millisecond); err != nil {
			return nil, err
		}
		return toyExec(-1)(uctx, u)
	}
	r := startLeakRun(t, ctx, 32, ServiceConfig{Units: 16, LeaseTTL: time.Minute})
	workersDone := make(chan error, 1)
	go func() { workersDone <- runWorkers(ctx, r.srv, 2, slow) }()

	// Read one line, then abandon the stream without draining.
	giveUp := time.AfterFunc(10*time.Second, cancel)
	defer giveUp.Stop()
	read := 0
	err := r.s.Results(ctx, r.id, func(int, []byte) error {
		read++
		cancel()
		return nil
	}, nil)
	if read != 1 {
		t.Fatalf("read %d lines before abandoning, want 1", read)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Results = %v, want context.Canceled", err)
	}
	if err := <-workersDone; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("workers: %v", err)
	}
	r.stop()
	check()
}

// TestNoLeakAcrossManyRuns runs several full service lifecycles and checks
// nothing accumulates — the per-run goroutines (readers, server, workers,
// heartbeats) all terminate with their run.
func TestNoLeakAcrossManyRuns(t *testing.T) {
	check := settleGoroutines(t)
	for round := 0; round < 3; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		r := startLeakRun(t, ctx, 8, ServiceConfig{Units: 4, LeaseTTL: time.Minute})
		workersDone := make(chan error, 1)
		go func() { workersDone <- runWorkers(context.Background(), r.srv, 3, toyExec(-1)) }()
		if _, err := results(ctx, r.s, r.id); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		cancel()
		if err := <-workersDone; err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		r.stop()
	}
	check()
}

// TestWorkerHeartbeatStopsWithUnit pins that a worker's heartbeat loop
// ends with its unit: after Run returns, no heartbeat goroutine survives.
func TestWorkerHeartbeatStopsWithUnit(t *testing.T) {
	check := settleGoroutines(t)
	ctx, cancel := context.WithCancel(context.Background())
	r := startLeakRun(t, ctx, 4, ServiceConfig{Units: 2, LeaseTTL: 30 * time.Millisecond})
	// Slow units force several heartbeats per lease.
	slow := func(uctx context.Context, u Unit) ([][]byte, error) {
		if err := sleep(uctx, 100*time.Millisecond); err != nil {
			return nil, err
		}
		return toyExec(-1)(uctx, u)
	}
	workersDone := make(chan error, 1)
	go func() { workersDone <- runWorkers(context.Background(), r.srv, 2, slow) }()
	if _, err := results(ctx, r.s, r.id); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-workersDone; err != nil {
		t.Fatal(err)
	}
	r.stop()
	check()
}
