package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/dist/journal"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/work"
)

// WorkKind tags grid work in checkpoint journals, distributed units, and
// the work registry. It is the third registered kind — and the first
// whose batch *generates* its design points instead of enumerating them:
// the wire payload is the spec plus a point range, not the points.
const WorkKind = "grid"

// Batch is an expanded grid as a work.Batch: an ordered slice of the
// full row-major expansion, each point running as one scenario and
// rendering the same compact NDJSON line `scenario -stream` emits — so a
// grid run is indistinguishable, line for line, from the equivalent
// hand-enumerated scenario batch.
//
// Expansion is lazy: the batch holds the spec and its range, and
// RunItem computes point i's config on demand (ConfigAt). A
// million-point batch is the same few hundred bytes as a ten-point one;
// memory during a run is bounded by the driver's in-flight window, not
// the point count.
type Batch struct {
	grid Grid        // defaulted spec
	axes []axis      // resolved dimensions of grid, canonical order
	r    sweep.Range // the slice of the full expansion this batch covers
	n    int         // full-grid point count
}

var _ work.Batch = (*Batch)(nil)

// wirePayload is the self-contained wire form of a grid slice: the whole
// (defaulted) spec plus the absolute point range. A worker re-expands the
// spec — deterministically, so its points match the coordinator's byte
// for byte — and slices out its range; the payload stays a few hundred
// bytes no matter how many points the range covers.
type wirePayload struct {
	Grid  Grid        `json:"grid"`
	Range sweep.Range `json:"range"`
}

func init() {
	work.Register(WorkKind, func(payload json.RawMessage) (work.Batch, error) {
		dec := json.NewDecoder(bytes.NewReader(payload))
		dec.DisallowUnknownFields()
		var p wirePayload
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("grid: work payload: %w", err)
		}
		// The payload means what its spec means to Expand, sliced to its
		// range: a submission (the whole grid) gets Expand's every check.
		b, err := Spec{Grid: p.Grid}.expand(&p.Range)
		if err != nil {
			return nil, err
		}
		return b, nil
	})
}

// Expand validates the spec and resolves the full grid, in row-major
// order over the canonical axis order. Nothing is materialized: point
// validity and name uniqueness are proven analytically (per axis value,
// not per point), with a full duplicate-name scan only as a backstop on
// grids small enough (≤ dupScanMaxPoints) that the scan is free — the
// one collision class the analytical checks admit is concatenation
// ambiguity between adjacent template placeholders.
func (s Spec) Expand() (*Batch, error) { return s.expand(nil) }

// expand is the one resolution of a spec, shared by Expand and the wire
// decoder: the batch covering r of the row-major expansion, or the whole
// grid when r is nil. The duplicate-name backstop runs whenever the batch
// is the whole grid; a unit's sub-range is never scanned, since the spec
// its payload carries was scanned at submission.
func (s Spec) expand(r *sweep.Range) (*Batch, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g := s.Grid.withDefaults()
	n, axes, err := pointCount(g)
	if err != nil {
		return nil, err
	}
	whole := sweep.Range{Lo: 0, Hi: n}
	if r == nil {
		r = &whole
	}
	if r.Lo < 0 || r.Hi > n || r.Lo >= r.Hi {
		return nil, fmt.Errorf("grid: range [%d, %d) out of bounds for %d points", r.Lo, r.Hi, n)
	}
	if err := validateAxisValues(g, axes); err != nil {
		return nil, err
	}
	if *r == whole && n <= dupScanMaxPoints {
		names := make(map[string]int, n)
		for i := 0; i < n; i++ {
			name := configAt(g, axes, i).Name
			if prev, dup := names[name]; dup {
				return nil, fmt.Errorf("grid: points %d and %d both expand to name %q (add the distinguishing axes to the name template)",
					prev, i, name)
			}
			names[name] = i
		}
	}
	return &Batch{grid: g, axes: axes, r: *r, n: n}, nil
}

// Spec returns the defaulted spec the batch expands.
func (b *Batch) Spec() Spec { return Spec{Grid: b.grid} }

// ConfigAt computes the config of point i of this batch (slice) on
// demand: the named, defaulted scenario at absolute grid index
// r.Lo + i. O(axes) per call, no per-point state.
func (b *Batch) ConfigAt(i int) scenario.Config {
	return configAt(b.grid, b.axes, b.r.Lo+i)
}

// Kind names the grid payload family.
func (b *Batch) Kind() string { return WorkKind }

// Len is the number of points in this batch (slice).
func (b *Batch) Len() int { return b.r.Hi - b.r.Lo }

// Hash is the canonical content hash of this batch: the hex SHA-256 of
// its wire form — the defaulted spec plus the covered range. Expansion is
// deterministic, so the spec pins the points; hashing it (rather than the
// expansion) keeps the hash O(spec) while still refusing a resume against
// any edit that would change a single point.
func (b *Batch) Hash() (string, error) {
	return journal.Hash(wirePayload{Grid: b.grid, Range: b.r})
}

// RunItem executes point i of this batch as one scenario and returns its
// compact NDJSON line. The config is computed on demand and dropped when
// the call returns — running a grid holds O(in-flight points) configs,
// never the expansion.
func (b *Batch) RunItem(ctx context.Context, i int) (json.RawMessage, error) {
	cfg := b.ConfigAt(i)
	res, err := scenario.RunCtx(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("grid point %q: %w", cfg.Name, err)
	}
	return res.NDJSONLine()
}

// ItemKey implements work.ItemKeyer: the content identity of one grid
// point — "scenario/" plus the hash of the expanded, defaulted config,
// the very key scenario.Batch.ItemKey computes for an equal config. A
// grid point's RunItem line is indistinguishable from the equivalent
// scenario's, so the shared namespace is sound, and it is what lets the
// dist store serve a grid whose points overlap a prior grid (or a prior
// hand-written batch) without re-simulating the overlap.
func (b *Batch) ItemKey(i int) (string, error) {
	h, err := journal.Hash(b.ConfigAt(i))
	if err != nil {
		return "", err
	}
	return "scenario/" + h, nil
}

// DescribeFidelity implements work.FidelityDescriber: the single
// miss-matrix fidelity every point of the grid shares, or "mixed" when a
// fidelity axis varies it — a metrics label only, never part of the wire
// form or the content hash.
func (b *Batch) DescribeFidelity() string {
	eff := func(f string) string {
		if f == "" {
			return profile.FidelityTrace
		}
		return f
	}
	fids := b.grid.Axes.Fidelity
	switch len(fids) {
	case 0:
		return eff(b.grid.Base.Fidelity)
	case 1:
		return eff(fids[0])
	}
	fid := eff(fids[0])
	for _, f := range fids[1:] {
		if eff(f) != fid {
			return "mixed"
		}
	}
	return fid
}

// MarshalRange renders the wire payload for the batch-relative range
// [r.Lo, r.Hi): the spec plus the corresponding absolute point range.
func (b *Batch) MarshalRange(r sweep.Range) (json.RawMessage, error) {
	abs := sweep.Range{Lo: b.r.Lo + r.Lo, Hi: b.r.Lo + r.Hi}
	if r.Lo < 0 || abs.Hi > b.r.Hi || r.Lo >= r.Hi {
		return nil, fmt.Errorf("grid: marshal range [%d, %d) out of bounds for %d items", r.Lo, r.Hi, b.Len())
	}
	return json.Marshal(wirePayload{Grid: b.grid, Range: abs})
}
