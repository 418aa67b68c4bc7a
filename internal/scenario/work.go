package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/dist/journal"
	"repro/internal/profile"
	"repro/internal/sweep"
	"repro/internal/work"
)

// JournalKind tags scenario-batch work: checkpoint journals, distributed
// work units, and the work registry all share it, so a checkpoint written
// by `scenario -checkpoint` resumes under `sweepd serve` and vice versa.
const JournalKind = "scenario-batch"

// Batch is a work.Batch: a batch already defaulted by LoadBatch runs
// through the unified driver (work.Run / work.Collect), gains
// checkpoint/resume from the journal helpers, and distributes through
// dist.RegistryExecutor — all emitting the same NDJSON lines in the same
// order.
var _ work.Batch = Batch{}

func init() {
	work.Register(JournalKind, func(payload json.RawMessage) (work.Batch, error) {
		// A payload means what the same document means to LoadBatch, so a
		// raw submission that leaves defaults out gets the batch ID the
		// CLIs give its file.
		b, err := LoadBatch(bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		return b, nil
	})
}

// Kind names the scenario-batch payload family.
func (b Batch) Kind() string { return JournalKind }

// Len is the number of scenarios in the batch.
func (b Batch) Len() int { return len(b.Scenarios) }

// Hash is the canonical content hash of the batch: the hex SHA-256 of its
// JSON form after defaulting. It pins checkpoint journals and distributed
// runs to their input — resuming against a batch that hashes differently
// is refused.
func (b Batch) Hash() (string, error) {
	return journal.Hash(b)
}

// RunItem executes scenario i and returns its compact NDJSON line — the
// unit of the batch streaming format.
func (b Batch) RunItem(ctx context.Context, i int) (json.RawMessage, error) {
	res, err := RunCtx(ctx, b.Scenarios[i])
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", b.Scenarios[i].Name, err)
	}
	return res.NDJSONLine()
}

// ItemKey implements work.ItemKeyer: the content identity of one scenario
// result line — "scenario/" plus the hash of the defaulted config. A grid
// point that expands to an equal config shares the key (and therefore, by
// the ItemKeyer contract, the line), which is what lets the dist store
// serve an overlapping grid from cached scenario results and vice versa.
func (b Batch) ItemKey(i int) (string, error) {
	h, err := journal.Hash(b.Scenarios[i])
	if err != nil {
		return "", err
	}
	return "scenario/" + h, nil
}

// DescribeFidelity implements work.FidelityDescriber: the miss-matrix
// fidelity all scenarios share ("" renders as its effective meaning,
// trace), or "mixed" when they disagree — a metrics label only, never
// part of the wire form or the content hash.
func (b Batch) DescribeFidelity() string {
	fid := ""
	for i := range b.Scenarios {
		f := b.Scenarios[i].Fidelity
		if f == "" {
			f = profile.FidelityTrace
		}
		if i == 0 {
			fid = f
		} else if f != fid {
			return "mixed"
		}
	}
	return fid
}

// MarshalRange renders the ordinary batch schema ({"scenarios": [...]})
// restricted to [r.Lo, r.Hi) — the self-contained payload of a distributed
// work unit. Defaults are already applied, so every worker executes
// identical configs.
func (b Batch) MarshalRange(r sweep.Range) (json.RawMessage, error) {
	return json.Marshal(Batch{Scenarios: b.Scenarios[r.Lo:r.Hi]})
}
