package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"repro/internal/obs"
)

// Executor runs one work unit and returns exactly one NDJSON line per
// input index in the unit's range, in range order. The lines must be what
// the sequential run would emit for those indices — byte-identity of the
// assembled output rests on executors being deterministic. A context error
// means the lease was lost or the worker is shutting down; any other error
// is deterministic and aborts the whole batch.
type Executor func(ctx context.Context, u Unit) ([][]byte, error)

// errLeaseLost marks a unit abandoned because the coordinator gave it to
// someone else (our heartbeat bounced); the worker just leases again.
var errLeaseLost = errors.New("dist: lease lost")

// ErrCoordinatorGone reports the coordinator became unreachable while the
// worker was idle (between units). A coordinator that has answered us
// before and now refuses connections has exited — normally because the
// batch completed and `sweepd serve` shut down before this worker's next
// lease poll — so callers usually treat it as a clean end of work rather
// than a failure. It is never returned while the worker holds results it
// could not deliver; an unreachable coordinator during a result report is
// a real error.
var ErrCoordinatorGone = errors.New("dist: coordinator gone")

// Worker pulls units from a coordinator until the batch is done: lease,
// heartbeat while executing, report the NDJSON lines, repeat. Run any
// number of them, in any mix of processes and machines — results are
// idempotent, so worker death at any point costs only the re-execution of
// the lost unit.
type Worker struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8080".
	Coordinator string
	// ID names this worker in leases and diagnostics; it must be non-empty
	// and should be unique across the fleet (hostname+pid works).
	ID string
	// Exec executes one unit.
	Exec Executor
	// Client is the HTTP client (nil = http.DefaultClient) and Token the
	// coordinator's shared secret (empty = none): the worker's requests go
	// through a dist.Client built from them and Coordinator.
	Client *http.Client
	Token  string
	// Poll is the fallback delay between lease attempts when the
	// coordinator is busy and did not hint one (0 = 200ms).
	Poll time.Duration
	// OnUnit, when non-nil, observes each successfully reported unit —
	// sweepd uses it for the work-loop ticker.
	OnUnit func(u Unit)
	// Clock supplies the time base for the per-unit execution timing
	// reported to the coordinator (nil = wall clock).
	Clock obs.Clock
}

// Run leases and executes units until the coordinator reports the batch
// done (returns nil), the context ends (returns its error), or a unit
// fails deterministically (the failure is reported to the coordinator and
// returned).
func (w *Worker) Run(ctx context.Context) error {
	if w.Coordinator == "" || w.ID == "" || w.Exec == nil {
		return fmt.Errorf("dist: worker needs Coordinator, ID and Exec")
	}
	c := &Client{URL: w.Coordinator, Token: w.Token, HTTP: w.Client}
	connected := false // a lease has succeeded against this coordinator
	unreachable := 0   // consecutive transport failures while idle
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lease LeaseResponse
		if err := c.post(ctx, "/v1/lease", leaseRequest{Worker: w.ID}, &lease); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// A transport error against a coordinator we have reached
			// before usually means it exited with the batch; retry a few
			// polls to ride out blips, then report it gone. A coordinator
			// we never reached is a configuration problem, not a shutdown.
			var ue *url.Error
			if connected && errors.As(err, &ue) {
				unreachable++
				if unreachable <= 3 {
					if serr := sleep(ctx, w.retryDelay(0)); serr != nil {
						return serr
					}
					continue
				}
				return fmt.Errorf("%w (worker %s: %v)", ErrCoordinatorGone, w.ID, err)
			}
			return fmt.Errorf("dist: worker %s: lease: %w", w.ID, err)
		}
		connected, unreachable = true, 0
		switch {
		case lease.Done:
			return nil
		case lease.Unit == nil:
			if err := sleep(ctx, w.retryDelay(lease.RetryAfterMS)); err != nil {
				return err
			}
		default:
			err := w.runUnit(ctx, c, *lease.Unit, time.Duration(lease.LeaseTTLMS)*time.Millisecond)
			switch {
			case errors.Is(err, errLeaseLost):
				// Someone else got the unit; nothing lost, lease again.
			case err != nil:
				return err
			}
		}
	}
}

// retryDelay resolves the coordinator's backoff hint against the local
// fallback.
func (w *Worker) retryDelay(hintMS int64) time.Duration {
	if hintMS > 0 {
		return time.Duration(hintMS) * time.Millisecond
	}
	if w.Poll > 0 {
		return w.Poll
	}
	return 200 * time.Millisecond
}

// runUnit executes one leased unit under a heartbeat: a background loop
// extends the lease a few times per TTL, and a bounced heartbeat (the
// coordinator re-leased the unit after presuming us dead) cancels the
// execution so the worker stops burning CPU on work someone else owns.
func (w *Worker) runUnit(ctx context.Context, c *Client, u Unit, ttl time.Duration) error {
	uctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var lost bool
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		interval := ttl / 3
		if interval <= 0 {
			interval = time.Second
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-uctx.Done():
				return
			case <-ticker.C:
				if err := c.post(uctx, "/v1/heartbeat", heartbeatRequest{Worker: w.ID, Unit: u.ID, Batch: u.Batch}, nil); err != nil {
					if uctx.Err() == nil {
						lost = true
						cancel()
					}
					return
				}
			}
		}
	}()

	execStart := w.Clock.Now()
	lines, execErr := w.Exec(uctx, u)
	execMS := w.Clock.Now().Sub(execStart).Milliseconds()
	cancel()
	<-hbDone // after this, lost is safely readable

	switch {
	case execErr == nil:
		if got, want := len(lines), u.Range.Len(); got != want {
			return fmt.Errorf("dist: worker %s: unit %d produced %d lines, want %d", w.ID, u.ID, got, want)
		}
		if err := c.result(ctx, w.ID, u, lines, execMS); err != nil {
			return fmt.Errorf("dist: worker %s: reporting unit %d: %w", w.ID, u.ID, err)
		}
		if w.OnUnit != nil {
			w.OnUnit(u)
		}
		return nil
	case lost:
		return errLeaseLost
	case ctx.Err() != nil:
		return ctx.Err()
	default:
		// Deterministic failure: tell the coordinator so it aborts the
		// batch instead of re-leasing the unit forever.
		msg := execErr.Error()
		if err := c.post(ctx, "/v1/fail", failRequest{Worker: w.ID, Unit: u.ID, Error: msg, Batch: u.Batch}, nil); err != nil {
			return fmt.Errorf("dist: worker %s: unit %d failed (%s); reporting the failure also failed: %w", w.ID, u.ID, msg, err)
		}
		return fmt.Errorf("dist: worker %s: unit %d: %s", w.ID, u.ID, msg)
	}
}

// sleep waits d or until ctx ends.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
