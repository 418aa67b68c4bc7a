package dist

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/work"
)

// RegistryExecutor returns the universal worker-side executor: it rebuilds
// any unit whose kind is registered with the work registry into a runnable
// batch and executes it, emitting exactly the NDJSON lines the sequential
// run would emit for the unit's indices. workers bounds in-unit
// concurrency (0 = GOMAXPROCS). A worker process executes every kind its
// binary links (cmd/sweepd links scenario and exp, so both register);
// units of a kind it does not know fail loudly with the registered list.
// A non-nil reg receives every unit's per-item work metrics
// (work.Options.Metrics), as a local run's would; nil means no metrics.
func RegistryExecutor(workers int, reg *obs.Registry) Executor {
	return func(ctx context.Context, u Unit) ([][]byte, error) {
		b, err := work.Unmarshal(u.Kind, u.Payload)
		if err != nil {
			return nil, fmt.Errorf("dist: unit %d: %w", u.ID, err)
		}
		if got, want := b.Len(), u.Range.Len(); got != want {
			return nil, fmt.Errorf("dist: unit %d payload carries %d items, range wants %d", u.ID, got, want)
		}
		return work.Collect(ctx, b, work.Options{Workers: workers, Metrics: reg})
	}
}
