// Package dist distributes a sweep across processes and machines: a
// coordinator splits an ordered batch into contiguous work units (via
// sweep.Shards, so unit boundaries follow the same input-ordered shard
// geometry every ordered reduction in this repository relies on), leases
// units to workers over a small HTTP+JSON protocol, and reassembles the
// workers' NDJSON result lines in input order — so distributed output is
// byte-identical to the sequential run, the repository's core invariant
// extended across process boundaries.
//
// The coordinator is the Service (NewService): a FIFO queue of batches
// multiplexed onto one worker fleet and journaled in a result store
// (internal/dist/store). `sweepd serve -store DIR` runs it long-lived
// over a content-addressed store directory, so identical resubmissions
// and overlapping batches are served from disk with zero re-execution and
// a restarted service resumes every stored batch. One-shot `sweepd serve`
// runs the same Service holding its single batch over a single-journal
// store (store.OpenFile — the -checkpoint file), writes Results to stdout,
// and shuts the service down once the batch ends.
//
// The protocol is four worker POST endpoints, the batch lifecycle, a
// status probe, and the metrics exposition, all JSON except the result
// body, which is raw NDJSON (the same frame cmd/scenario -stream emits).
// Units carry a "batch" ID that workers echo back on heartbeat, result,
// and fail:
//
//	POST   /v1/lease      {"worker":ID}                      -> {"done":bool,"unit":{...},"lease_ttl_ms":N,"retry_after_ms":N}
//	POST   /v1/heartbeat  {"worker":ID,"unit":N,"batch":B}   -> {"ok":true} | 409 {"error":"lease lost"}
//	POST   /v1/result?worker=ID&batch=B&unit=N&exec_ms=T  <NDJSON>  -> {"accepted":true}
//	POST   /v1/fail       {"worker":ID,"unit":N,"batch":B,"error":S} -> {"ok":true}
//	POST   /v1/batches              {"kind":K,"payload":P} -> 201 BatchStatus (200 on idempotent resubmit)
//	GET    /v1/batches              -> [BatchStatus] in submission order
//	GET    /v1/batches/{id}         -> BatchStatus
//	DELETE /v1/batches/{id}         -> BatchStatus (cancelled)
//	GET    /v1/batches/{id}/results -> input-ordered NDJSON stream, live or from the store
//	GET    /v1/status               -> ServiceStatus (queue, throughput, ETA, per-worker liveness, in-flight units)
//	GET    /metrics                 -> Prometheus text exposition of the dist_* families
//
// Request bodies are capped (1 MiB for lease, heartbeat, and fail; 256
// MiB for submissions and results); an over-cap body answers 413.
// docs/wire-protocol.md is the generated, example-by-example
// specification (captured from these handlers by internal/docs);
// docs/operations.md is the operator runbook.
//
// The worker's optional exec_ms on /v1/result reports the unit's measured
// execution time, a number of milliseconds from 0 to one year (anything
// else answers 400); the service falls back to lease age when it is
// absent, so old workers interoperate. A request answered 400 registers
// no worker. The status probe and the metrics endpoint
// sit behind the same handler (and therefore the same RequireToken gate)
// as the work protocol.
//
// Liveness is lease-based: a worker holds a unit for LeaseTTL and extends
// it by heartbeating; when a worker dies mid-lease the lease expires and
// the next lease request hands the unit to another worker. Results are
// idempotent per item index — a re-leased unit reported by two workers
// stores each line once (first arrival wins; the lines are byte-identical
// anyway, because the work is deterministic) — so late results from a
// presumed-dead worker are accepted, never duplicated.
//
// Every completed line is journaled before it can be streamed; the store
// entries are ordinary checkpoint journals (internal/dist/journal),
// readable by `sweepd journal` and adoptable in both directions
// (hash-verified). Admission replays a batch's journal, so units whose
// whole range is already journaled are never leased again. A result line
// must be canonical (journal.Canonical: exactly as the journal stores
// it), so a live stream and a replay of one batch serve the same bytes.
//
// Payload kinds are not this package's business: Submit takes any
// work.Batch (units carry its own range marshalling), and
// RegistryExecutor resolves units back into runnable batches through the
// work registry — adding a workload kind requires no change here (given
// an obs.Registry it also records work.Run's per-item metrics).
// RequireToken optionally gates the protocol behind a shared secret for
// coordinators listening beyond one trusted host. Client is the API's one
// client: Worker speaks the worker protocol through it, and `sweepd
// submit` submits, waits on and streams batches with it.
package dist
