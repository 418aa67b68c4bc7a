package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/dist/journal"
	"repro/internal/profile"
	"repro/internal/sweep"
	"repro/internal/work"
)

// WorkKind tags experiment work: checkpoint journals written by `figures
// -checkpoint`, distributed units served by `sweepd serve -experiments`,
// and the work-registry entry that turns those units back into runnable
// batches all share it.
const WorkKind = "experiments"

// workPayload is the wire form of an experiment batch: experiment IDs in
// run order plus the environment scale they run at. It is also exactly
// what the content hash covers. The scenario kind gets this for free (its
// configs embed accesses); here it makes a unit self-contained — a worker
// runs it at the scale it names, with no configuration of its own — and
// keeps a resume at a different scale from silently splicing two
// simulation scales into one result set.
type workPayload struct {
	IDs []string `json:"ids"`
	Scale
}

// Line is the NDJSON frame of one streamed artifact — the object `figures
// -stream` emits and distributed experiment units carry, so downstream
// consumers cannot tell a distributed run from a local one.
type Line struct {
	ID    string `json:"id"`
	ASCII string `json:"ascii"`
	CSV   string `json:"csv"`
}

// NDJSONLine renders one artifact as its compact stream line.
func (a Artifact) NDJSONLine() ([]byte, error) {
	return json.Marshal(Line{ID: a.ID, ASCII: a.Render(), CSV: a.CSV()})
}

// Batch is a list of experiments (registry or extension) as a
// work.Batch: each item is one experiment, rendering to its Line, run
// against the batch's Env. The Env's scale travels with every unit, and a
// batch decoded from the wire takes its Env from the environments of the
// last few scales the process decoded (wireEnv) — miss matrices are then
// memoized per machine and scale, and cache designs per machine (core's
// memo), so a worker fleet rebuilds them once per machine instead of once
// per unit.
type Batch struct {
	ids  []string
	exps []Experiment
	env  *Env
}

var _ work.Batch = (*Batch)(nil)

func init() {
	work.Register(WorkKind, func(payload json.RawMessage) (work.Batch, error) {
		dec := json.NewDecoder(bytes.NewReader(payload))
		dec.DisallowUnknownFields()
		var p workPayload
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("exp: work payload: %w", err)
		}
		switch {
		case p.Accesses <= 0:
			return nil, fmt.Errorf("exp: work payload: accesses must be positive, got %d", p.Accesses)
		case p.Accesses > profile.MaxAccesses:
			return nil, fmt.Errorf("exp: work payload: accesses %d above the cap of %d", p.Accesses, profile.MaxAccesses)
		case !profile.ValidFidelity(p.Fidelity):
			return nil, fmt.Errorf("exp: work payload: unknown fidelity %q (want %q or %q)",
				p.Fidelity, profile.FidelityTrace, profile.FidelityAnalytical)
		}
		return NewBatch(p.IDs, wireEnv(p.Scale))
	})
}

// maxWireEnvs bounds the scales whose environments wireEnvs holds.
const maxWireEnvs = 8

// wireEnvs holds the environments of the last maxWireEnvs scales this
// process decoded a batch at, oldest first.
var wireEnvs struct {
	sync.Mutex
	envs []*Env
}

// wireEnv returns the environment of scale sc, so the units of one batch
// — and of every batch at the same scale — share memoized substrates,
// while a process that decodes many scales evicts the oldest. A batch
// whose scale was evicted keeps its *Env. No single-flight build is
// needed: an Env builds nothing until it is used.
func wireEnv(sc Scale) *Env {
	wireEnvs.Lock()
	defer wireEnvs.Unlock()
	for _, e := range wireEnvs.envs {
		if ScaleOf(e) == sc {
			return e
		}
	}
	e := NewEnv()
	e.Accesses, e.Seed, e.MinR2, e.Fidelity = sc.Accesses, sc.Seed, sc.MinR2, sc.Fidelity
	wireEnvs.envs = append(wireEnvs.envs[max(0, len(wireEnvs.envs)-maxWireEnvs+1):], e)
	return e
}

// NewBatch resolves experiment IDs, registry or extension (preserving
// input order), into an experiment work batch run against env. Unknown
// IDs fail here — on the coordinator, not on some worker three machines
// away.
func NewBatch(ids []string, env *Env) (*Batch, error) {
	if env == nil {
		return nil, fmt.Errorf("exp: batch needs an environment")
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("exp: batch has no experiment ids")
	}
	exps, err := findExperiments(ids)
	if err != nil {
		return nil, err
	}
	return &Batch{ids: ids, exps: exps, env: env}, nil
}

// Kind names the experiments payload family.
func (b *Batch) Kind() string { return WorkKind }

// Len is the number of experiments in the batch.
func (b *Batch) Len() int { return len(b.ids) }

// Scale is the environment scale an experiments batch pins: the Env
// knobs that change result bytes. Every unit's payload carries it, and
// the content hash covers it alongside the artifact selection.
type Scale struct {
	Accesses int     `json:"accesses"`
	Seed     int64   `json:"seed"`
	MinR2    float64 `json:"min_r2"`
	// Fidelity is the miss-matrix builder choice ("" = trace-driven;
	// omitted from the wire form when empty so pre-fidelity journals
	// keep their hashes).
	Fidelity string `json:"fidelity,omitempty"`
}

// ScaleOf extracts the environment scale of an Env.
func ScaleOf(e *Env) Scale {
	return Scale{Accesses: e.Accesses, Seed: e.Seed, MinR2: e.MinR2, Fidelity: e.Fidelity}
}

// Hash is the canonical content hash pinning checkpoint journals and
// distributed runs to exactly this artifact set at exactly this
// environment scale — resuming the same IDs with different simulation
// parameters is refused as a batch-hash mismatch.
func (b *Batch) Hash() (string, error) {
	return journal.Hash(workPayload{IDs: b.ids, Scale: ScaleOf(b.env)})
}

// DescribeFidelity implements work.FidelityDescriber: the environment
// scale's miss-matrix fidelity ("" renders as its effective meaning,
// trace) — a metrics label only.
func (b *Batch) DescribeFidelity() string {
	if f := b.env.Fidelity; f != "" {
		return f
	}
	return profile.FidelityTrace
}

// ItemKey implements work.ItemKeyer: the content identity of one
// experiment line — "exp/" plus the environment-scale hash plus the
// artifact ID. An experiment's bytes depend on its ID and the scale it
// runs at and nothing else, so two batches selecting the same artifact at
// the same scale share the key (and the line) regardless of what else
// each batch contains — the dist store then serves the overlap from
// cache.
func (b *Batch) ItemKey(i int) (string, error) {
	h, err := journal.Hash(ScaleOf(b.env))
	if err != nil {
		return "", err
	}
	return "exp/" + h + "/" + b.ids[i], nil
}

// RunItem executes experiment i against the batch's environment and
// returns its compact Line.
func (b *Batch) RunItem(ctx context.Context, i int) (json.RawMessage, error) {
	a, err := b.exps[i].Run(ctx, b.env)
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", b.exps[i].ID, err)
	}
	return a.NDJSONLine()
}

// MarshalRange renders the payload for [r.Lo, r.Hi) — the IDs plus the
// batch's scale, the self-contained description of a distributed
// experiment unit.
func (b *Batch) MarshalRange(r sweep.Range) (json.RawMessage, error) {
	return json.Marshal(workPayload{IDs: b.ids[r.Lo:r.Hi], Scale: ScaleOf(b.env)})
}

// findExperiments resolves registry and extension IDs, preserving input
// order.
func findExperiments(ids []string) ([]Experiment, error) {
	byID := make(map[string]Experiment)
	for _, e := range append(Experiments(), Extensions()...) {
		byID[e.ID] = e
	}
	out := make([]Experiment, len(ids))
	for i, id := range ids {
		e, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("exp: unknown experiment id %q", id)
		}
		out[i] = e
	}
	return out, nil
}
