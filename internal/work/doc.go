// Package work is the repository's unified workload API: one Batch
// abstraction that every payload kind — scenario batches, experiment sets,
// whatever comes next — implements once, and one generic driver that then
// gives that kind sequential and parallel execution, NDJSON streaming,
// journal checkpoint/resume, and (through internal/dist) distribution
// across processes and machines, all preserving the repository's core
// invariant: output is byte-identical to the sequential run
// (docs/determinism.md states the invariant and the machinery holding it).
//
// A Batch is an ordered list of independent items. Each item renders to
// exactly one compact NDJSON line (RunItem), the whole batch has a
// canonical content hash (Hash) that pins checkpoint journals and
// distributed runs to their input, and any contiguous index range can be
// marshalled to a self-contained wire payload (MarshalRange) and turned
// back into a runnable Batch by the kind registry (Register/Unmarshal) —
// which is how a distributed work unit travels to a worker that shares
// nothing with the coordinator.
//
// A Batch may additionally implement ItemKeyer, giving each item a
// stable content-derived key. Equal keys promise byte-identical RunItem
// lines, which is what lets the multi-batch result store
// (internal/dist/store) share completed items across overlapping batches
// — a grid extending a previous grid re-executes only the new points.
// Keys must be namespaced by line schema: two kinds that would ever
// render the same logical item differently must not collide.
//
// A resume passes OpenJournal's entries, sorted by input index, as
// Options.Done: Run skips them and shows them to Options.Observe before
// any fresh line, so a reduction sees a resumed run as a fresh one.
//
// Adding a workload kind is therefore one file in its own package:
// implement Batch, call Register in init, and the kind immediately works
// with `scenario`-style streaming, `-checkpoint/-resume`, and `sweepd`
// distribution. The driver (Run, Collect) and the executors built on the
// registry (dist.RegistryExecutor) never change.
package work
