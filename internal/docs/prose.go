package docs

// The prose blocks below are the hand-written halves of the generated
// wire-protocol document. The example requests and responses between
// them are captured live by docs.go; edit the words here, regenerate
// with `make docs`, never edit docs/wire-protocol.md directly.

const header = `<!-- Code generated by internal/docs from live protocol fixtures. DO NOT EDIT.
     Regenerate with ` + "`make docs`" + ` after changing the wire protocol. -->

# sweepd wire protocol

This document is generated: every request and response below was
captured from a real service — the exact handler ` + "`sweepd serve`" + `
mounts — running in-process against the fixture workload under a fixed
clock. If the protocol changes, the golden test in ` + "`internal/docs`" + `
fails until this file is regenerated, so what you read here is what the
binary speaks.

All endpoints exchange JSON (result uploads are NDJSON). Errors use
` + "`{\"error\": \"...\"}`" + ` bodies with a 4xx/5xx status; a request body over
its cap (1 MiB for lease, heartbeat and fail; 256 MiB for submissions
and result uploads) answers 413. When the server was started with
` + "`-token`" + `, every request must carry ` + "`Authorization: Bearer <token>`" + `
(see [Authentication](#authentication)); transport security is the
deployment's job — put the listener behind TLS if the network is not
trusted (see [docs/operations.md](operations.md)).

Both ways of running ` + "`sweepd serve`" + ` speak this one protocol:

- **Service** (` + "`sweepd serve -store DIR`" + `): a long-lived queue of
  batches submitted over HTTP, multiplexed onto one worker fleet and
  journaled in a content-addressed result store.
- **One-shot** (` + "`sweepd serve -f …`" + `): the same service born holding a
  single batch over a store of one journal; it writes the batch's
  results to stdout and exits when the batch ends.

Workers (` + "`sweepd work`" + `) use four endpoints — lease, heartbeat,
result, fail; submitters and operators use the rest.

## Protocol

`

const submitProse = `
A batch is its ` + "`kind`" + ` plus the same JSON ` + "`payload`" + ` a lease hands
to workers. The service hashes the payload; the hash is the batch's
identity (` + "`id`" + ` below is ` + "`<kind>-<hash>`" + `). A new batch is admitted
201 and queued; the response is its initial status. Items already
present in the store — from a prior identical batch, or from
overlapping batches via per-item keys — are counted in the
` + "`items_cached_*`" + ` fields and never reach a worker. Batches are
submitted with ` + "`sweepd submit`" + `, which wraps this endpoint.`

const leaseProse = `
A worker announces itself and asks for work. The response either grants
a lease on a unit (a contiguous item range of one batch), tells the
worker to back off (` + "`retry_after_ms`" + `, no unit), or reports the
service is shutting down (` + "`done`" + `; a one-shot serve shuts down once
its batch ends). The ` + "`kind`" + ` and ` + "`payload`" + ` let the worker
reconstruct the batch locally; ` + "`range`" + ` selects the unit's slice;
` + "`batch`" + ` names the batch, which the worker echoes on heartbeat,
result and fail; ` + "`lease_ttl_ms`" + ` is the deadline the worker must
heartbeat within. Units of different batches are leased in
batch-submission order.`

const heartbeatProse = `
Holding a lease, the worker renews it at roughly TTL/3 intervals. A 409
means the lease was lost — expired and reassigned, or the batch reached
a terminal state — and the worker should abandon the unit and lease
again.`

const resultProse = `
The worker uploads the unit's results as NDJSON — one line per input
item, in item order, byte-identical to what a sequential run would
produce. Query parameters attribute the upload: ` + "`worker`" + `, ` + "`batch`" + `
and ` + "`unit`" + ` are required, ` + "`exec_ms`" + ` carries the worker-measured
execution time (feeding the straggler baseline): when present it must be
a number of milliseconds from 0 to one year, or the upload answers 400
and changes nothing. Each line must be exactly as the journal stores it
— compact JSON with ` + "`<`" + `, ` + "`>`" + ` and ` + "`&`" + ` escaped, as ` + "`json.Marshal`" + `
writes it — or the upload answers 400 naming the line and changes
nothing, so a live stream and a later replay serve the same bytes.
Accepted lines are
appended to the batch's store journal before any result stream can see
them. The upload is idempotent: re-posting a completed unit is
acknowledged without effect.`

const batchStatusProse = `
Polls one batch. States progress ` + "`queued → running → done`" + ` (or
` + "`failed`" + `/` + "`cancelled`" + `); the ` + "`items_*`" + ` fields attribute every
completed item to its source — the batch's own prior journal, the
per-item index (overlap with other batches), or fleet execution.`

const resultsProse = `
Streams the batch's results as NDJSON in input order — byte-identical
to a sequential ` + "`scenario -stream`" + ` run of the same input, whether each
line was just executed or served from the store. On a batch that is
still running, the stream blocks and delivers lines as they complete;
on a terminal batch it replays from the store. Lines that are ready
together go out in one write, and the stream is flushed whenever the
next line is not ready yet. A failed or cancelled
batch ends the stream early with the lines that exist. A one-shot serve
writes exactly this stream to stdout.`

const resubmitProse = `
Submitting a byte-identical payload again returns 200 (not 201) and the
existing batch's status — the queue is idempotent, nothing is re-run,
and the results endpoint serves the stored bytes. The equivalence test
in ` + "`internal/dist`" + ` pins this: a resubmitted batch executes zero
items.`

const failProse = `
Deterministic failures — the item itself is invalid, retrying cannot
help — are reported here and fail the unit's whole batch (one bad item
must not silently truncate a sweep); other batches are untouched.
Transient failures are NOT reported: the worker just stops heartbeating
and the lease expires back into the pool.`

const statusProse = `
The operator probe. ` + "`queue_depth`" + ` counts batches still holding work,
per-batch rows carry the same attribution as the batch endpoints, and
` + "`store`" + ` totals the store's contents and hit counters. ` + "`elapsed_ms`" + `,
rates and ETA derive from the service's clock (fixed in this fixture,
hence the zeros). Workers are listed with liveness and the unit they
hold (` + "`current_unit`" + `); ` + "`in_flight`" + ` lists every unit out on a live
lease with its age and a ` + "`straggler`" + ` flag once the age passes twice the
mean unit time. Here the second batch has failed and ` + "`w2`" + ` holds the
third batch's unit. ` + "`queue_depth`" + ` with ` + "`eta_ms`" + ` is the autoscaling
signal — see [docs/operations.md](operations.md).`

const cancelProse = `
Cancelling a queued or running batch marks it ` + "`cancelled`" + `: no further
units are leased and heartbeats for its leases answer 409; late uploads
are journaled as store cache but change nothing. Other batches are
untouched. Cancelling an already-terminal batch returns its state
unchanged; unknown IDs get 404.`

const listProse = `
Lists every batch in submission order, active and terminal alike — the
queue view behind ` + "`sweepd submit -wait`" + ` and the operator dashboard.`

const metricsProse = `
The Prometheus text exposition of the service's ` + "`dist_*`" + ` families,
here after the exchanges above. The complete catalogue — names, labels,
and what to alert on — is maintained in
[docs/operations.md](operations.md).`

const tokenProse = `
With ` + "`-token`" + ` set, unauthenticated requests get 401 and a
` + "`WWW-Authenticate`" + ` challenge; the same request with
` + "`Authorization: Bearer <token>`" + ` proceeds normally. The token gates
every endpoint alike — workers, submitters, and operators share it.`
