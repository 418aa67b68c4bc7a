// Package profile is the analytical fast path for the miss-matrix hot
// loop: a one-pass LRU reuse (stack-distance) profiler over the synthetic
// trace streams, and a matrix builder that turns one profile into local
// miss rates for *every* (L1 size, L2 size) combination via O(1) histogram
// CDF lookups.
//
// The trace-driven simulator (internal/sim) pays O(accesses) per L1 size
// and replays the miss stream into every candidate L2 — and every
// scenario or grid design point pays that again. Mattson's inclusion
// property removes the repetition: a fully-associative LRU cache of
// capacity C blocks hits an access if and only if its stack distance
// (the number of distinct blocks touched since the previous access to the
// same block) is below C. One pass over the stream therefore yields a
// distance histogram whose CDF answers "what is the miss ratio at
// capacity C?" for all C at once. The profiler tracks two granularities
// in the same pass — the L1's 32 B blocks and the L2's 64 B blocks (the
// geometries cachecfg.L1/L2 fix) — and splits the histogram by
// read/write so dirty-writeback rates fall out of the same pass (see
// the residency accounting on dirtyGap below).
//
// # Fidelity contract
//
// The profile models both cache levels as fully associative; the
// simulator's caches are 4-way (L1) and 8-way (L2) set-associative with
// address-bit indexing. This is the documented associativity
// approximation: the trace generators scatter hot blocks through the
// address space (trace.Params' permuted Zipf mapping), which makes
// set conflicts behave near-randomly, and at 4-8 ways the
// fully-associative LRU miss ratio is a tight lower-ish approximation of
// the set-associative one. The L2 is additionally modeled from the full
// reference stream rather than the L1-filtered miss stream (the
// inclusion argument: any reference whose 64 B-block distance reaches an
// L2 capacity has long since fallen out of every candidate L1), and L1
// dirty write-backs into the L2 are assumed to hit there (their block
// was fetched into the much larger L2 when it originally missed).
//
// Trace-driven simulation stays the golden reference. The approximation
// error is gated by TestAnalyticalWithinTolerance: across every
// registered workload suite and the full cachecfg size lists, analytical
// local miss rates and write-back rates agree with sim.BuildMissMatrixCtx
// within Tolerance (absolute). Callers that need exact set-associative
// numbers use the simulator; callers sweeping thousands of design points
// use this package and accept the stated epsilon.
package profile
