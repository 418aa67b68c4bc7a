package work

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/sweep"
)

// Batch is one ordered workload: n independent items, each rendering to
// exactly one compact NDJSON line. Implementations must be deterministic —
// the same batch produces the same bytes at any worker count, on any
// machine — because every guarantee downstream (streamed, checkpointed,
// and distributed output byte-identical to sequential) rests on it.
type Batch interface {
	// Kind names the payload family (e.g. "scenario-batch",
	// "experiments"). It tags checkpoint journals and distributed work
	// units, and keys the registry that turns wire payloads back into
	// runnable batches.
	Kind() string
	// Len is the number of ordered items.
	Len() int
	// Hash is the canonical content hash of the whole batch (journal.Hash
	// of its wire form). It pins checkpoint journals and distributed runs
	// to their input: resuming against a batch that hashes differently is
	// refused.
	Hash() (string, error)
	// RunItem executes item i and returns its compact NDJSON line (no
	// trailing newline). Errors are deterministic failures that abort the
	// run; context errors mean cancellation. RunItem must be safe for
	// concurrent calls with distinct i.
	RunItem(ctx context.Context, i int) (json.RawMessage, error)
	// MarshalRange renders the self-contained wire payload for the
	// contiguous item range [r.Lo, r.Hi) — everything a worker needs to
	// rebuild (via the kind's registered UnmarshalFunc) and execute those
	// items, with item k of the rebuilt batch equal to item r.Lo+k of
	// this one.
	MarshalRange(r sweep.Range) (json.RawMessage, error)
}

// UnmarshalFunc rebuilds a runnable Batch from a wire payload produced by
// MarshalRange of a batch of the same kind.
type UnmarshalFunc func(payload json.RawMessage) (Batch, error)

// ItemKeyer is an optional Batch extension for kinds whose items carry a
// content identity of their own, finer than the batch hash. ItemKey
// returns a stable key for item i with one contract: two items with equal
// keys — in any two batches, of any two kinds — produce byte-identical
// RunItem lines. Keys are namespaced by the line schema they identify
// ("scenario/..." for scenario result lines, "exp/..." for experiment
// tables), never by the batch kind: a grid point and the equivalent
// hand-written scenario share a key precisely because they share a line.
// The dist store's per-item index is built on this contract — it is what
// lets an overlapping grid reuse a prior grid's points instead of
// re-simulating them. Kinds without a per-item identity simply do not
// implement it and only ever hit the cache on whole-batch resubmission.
// ItemKey must be safe for concurrent use: the dist service keys a
// unit's lines on each result request's own goroutine, with no lock held.
type ItemKeyer interface {
	ItemKey(i int) (string, error)
}

// registry maps kind names to their payload decoders. Kinds register from
// package init (scenario, exp), so the map is effectively read-only after
// program start; the lock exists for tests and late registrations.
var registry = struct {
	sync.RWMutex
	m map[string]UnmarshalFunc
}{m: make(map[string]UnmarshalFunc)}

// Register adds a payload kind to the registry. Packages call it from
// init; registering the same kind twice (or an empty kind, or a nil
// decoder) panics — both are programming errors, not runtime conditions.
func Register(kind string, fn UnmarshalFunc) {
	if kind == "" || fn == nil {
		panic("work: Register needs a non-empty kind and an UnmarshalFunc")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[kind]; dup {
		panic(fmt.Sprintf("work: kind %q registered twice", kind))
	}
	registry.m[kind] = fn
}

// Unmarshal rebuilds a runnable Batch from a kind name and wire payload —
// the worker side of distribution. Unknown kinds fail with the registered
// kind list, so a version-skewed fleet diagnoses itself.
func Unmarshal(kind string, payload json.RawMessage) (Batch, error) {
	registry.RLock()
	fn := registry.m[kind]
	registry.RUnlock()
	if fn == nil {
		return nil, fmt.Errorf("work: unknown kind %q (registered: %s)", kind, strings.Join(Kinds(), ", "))
	}
	b, err := fn(payload)
	if err != nil {
		return nil, err
	}
	if got := b.Kind(); got != kind {
		return nil, fmt.Errorf("work: kind %q decoded a batch reporting kind %q", kind, got)
	}
	return b, nil
}

// Kinds lists the registered payload kinds, sorted.
func Kinds() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.m))
	for k := range registry.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
