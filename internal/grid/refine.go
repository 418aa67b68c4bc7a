package grid

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/work"
)

// DefaultSlack is the relative dominance margin of the analytical
// shortlist: a point is culled from trace refinement only when some other
// feasible point beats it by the whole margin on *both* objectives. If
// the analytical pass's relative error on leakage and AMAT is at most e,
// a margin of (1+e)²−1 guarantees no true-front point is culled (the
// culling witness then dominates it in true coordinates too).
// profile.Tolerance bounds the analytical miss-rate error at 0.04, giving
// 0.0816; the default adds headroom because miss-rate error propagates
// nonlinearly through the knob optimization — TestRefineAgreesWithTraceFrontier
// pins that the band is wide enough on the registered suites.
const DefaultSlack = 0.25

// RefineCheckpointSuffix names the second-phase journal: a refined run
// checkpointing to PATH journals its analytical pass to PATH and its
// trace shortlist to PATH+RefineCheckpointSuffix.
const RefineCheckpointSuffix = ".refine"

// Shortlist returns the input indices (ascending) of the candidates that
// survive slack-relaxed Pareto dominance: point p is dropped only when
// some feasible q has q.AMAT ≤ p.AMAT/(1+slack) and q.leakage ≤
// p.leakage/(1+slack). With slack > 0 this keeps the whole front plus
// the near-front band whose members an evaluation error of up to ~slack/2
// per objective could promote; slack ≤ 0 means DefaultSlack. O(n log n).
func (f *Frontier) Shortlist(slack float64) []int {
	if slack <= 0 {
		slack = DefaultSlack
	}
	sorted := append([]frontierCand(nil), f.cand...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].amatPS != sorted[j].amatPS {
			return sorted[i].amatPS < sorted[j].amatPS
		}
		if sorted[i].leakageMW != sorted[j].leakageMW {
			return sorted[i].leakageMW < sorted[j].leakageMW
		}
		return sorted[i].idx < sorted[j].idx
	})
	// minLeak[k] = min leakage over sorted[0..k] — the best any point
	// with AMAT ≤ sorted[k].AMAT achieves.
	minLeak := make([]float64, len(sorted))
	for k, c := range sorted {
		minLeak[k] = c.leakageMW
		if k > 0 && minLeak[k-1] < minLeak[k] {
			minLeak[k] = minLeak[k-1]
		}
	}
	out := []int{}
	for _, c := range sorted {
		ta := c.amatPS / (1 + slack)
		// Rightmost candidate with AMAT ≤ ta; all have strictly smaller
		// AMAT than c (slack > 0), so c never witnesses against itself.
		k := sort.Search(len(sorted), func(k int) bool { return sorted[k].amatPS > ta }) - 1
		if k >= 0 && minLeak[k] <= c.leakageMW/(1+slack) {
			continue
		}
		out = append(out, c.idx)
	}
	sort.Ints(out)
	return out
}

// Derived materializes the given grid points (absolute batch indices,
// typically a Shortlist) as a plain scenario batch at the given fidelity
// — the already-registered "scenarios" work kind, so the derived batch
// streams, checkpoints, and distributes through the same driver as any
// hand-written batch. Point names are preserved; only the fidelity
// changes, so the derived batch's content hash pins both the shortlist
// and the refinement fidelity.
func (b *Batch) Derived(indices []int, fidelity string) (scenario.Batch, error) {
	if !profile.ValidFidelity(fidelity) {
		return scenario.Batch{}, fmt.Errorf("grid: unknown derived fidelity %q", fidelity)
	}
	if len(indices) == 0 {
		return scenario.Batch{}, fmt.Errorf("grid: deriving an empty batch")
	}
	cfgs := make([]scenario.Config, len(indices))
	for k, i := range indices {
		if i < 0 || i >= b.Len() {
			return scenario.Batch{}, fmt.Errorf("grid: derived index %d out of range [0, %d)", i, b.Len())
		}
		c := b.ConfigAt(i)
		c.Fidelity = fidelity
		cfgs[k] = c
	}
	return scenario.Batch{Scenarios: cfgs}, nil
}

// RefineOptions tunes one Refine run.
type RefineOptions struct {
	// Workers bounds concurrent points per phase (0 = GOMAXPROCS).
	Workers int
	// Checkpoint, when non-empty, journals the analytical pass to this
	// path and the trace shortlist to path+RefineCheckpointSuffix, so a
	// killed refinement resumes either phase.
	Checkpoint string
	// Resume replays existing journals instead of refusing to overwrite.
	Resume bool
	// Progress, when non-nil, is asked once per phase for the hook that
	// observes that phase's completion; phase is "analytical" for the
	// full-grid pass and "refine" for the trace shortlist.
	Progress func(phase string) sweep.Progress
}

// Refine is the multi-fidelity frontier: run the full grid analytically,
// shortlist the Pareto front plus the slack band the analytical error
// could promote, re-run only the shortlist at trace fidelity through the
// unified driver, and emit the refined frontier. The output stream is the
// analytical pass's NDJSON lines (input order), then the shortlist's
// trace-fidelity lines (grid order), then one {"frontier": [...]} summary
// whose coordinates are trace-fidelity — deterministic and byte-identical
// across worker counts, checkpointed resumes, and distribution.
//
// The spec must not pin trace fidelity: an unset base fidelity is run as
// "analytical", a fidelity axis or a trace base is refused (Refine owns
// the fidelity ladder).
func Refine(ctx context.Context, spec Spec, o RefineOptions, w io.Writer) error {
	if spec.Grid.Axes.Fidelity != nil {
		return fmt.Errorf("grid: refine sets fidelity per phase; drop the fidelity axis")
	}
	switch spec.Grid.Base.Fidelity {
	case "":
		spec.Grid.Base.Fidelity = profile.FidelityAnalytical
	case profile.FidelityAnalytical:
	default:
		return fmt.Errorf("grid: refine's first pass is analytical; drop base fidelity %q", spec.Grid.Base.Fidelity)
	}
	b, err := spec.Expand()
	if err != nil {
		return err
	}

	var fr Frontier
	shortlist, err := runPhase(ctx, b, o, "analytical", o.Checkpoint, &fr, w, func() []int {
		return fr.Shortlist(DefaultSlack)
	})
	if err != nil {
		return err
	}
	if len(shortlist) == 0 {
		// Every point infeasible: nothing to refine, empty frontier.
		return emitSummary(&Frontier{}, w)
	}
	derived, err := b.Derived(shortlist, profile.FidelityTrace)
	if err != nil {
		return err
	}
	var refined Frontier
	ckpt := ""
	if o.Checkpoint != "" {
		ckpt = o.Checkpoint + RefineCheckpointSuffix
	}
	if _, err := runPhase(ctx, work.Batch(derived), o, "refine", ckpt, &refined, w, nil); err != nil {
		return err
	}
	return emitSummary(&refined, w)
}

// runPhase drives one batch through work.Run, accumulating every line —
// journal-replayed and fresh, both through Observe — into fr, and returns
// after()'s value (nil after = nil result). The journal (if any) is closed
// before returning so the next phase's file operations see it complete.
func runPhase(ctx context.Context, b work.Batch, o RefineOptions, phase, checkpoint string, fr *Frontier, w io.Writer, after func() []int) ([]int, error) {
	opts := work.Options{Workers: o.Workers}
	if o.Progress != nil {
		opts.Progress = o.Progress(phase)
	}
	if checkpoint != "" {
		jr, done, err := work.OpenJournal(checkpoint, b, o.Resume)
		if err != nil {
			return nil, err
		}
		defer jr.Close()
		opts.Journal, opts.Done = jr, done
	}
	var frErr error
	opts.Observe = func(i int, line json.RawMessage) {
		if err := fr.Add(i, line); err != nil && frErr == nil {
			frErr = err
		}
	}
	if err := work.Run(ctx, b, opts, w); err != nil {
		return nil, err
	}
	if frErr != nil {
		return nil, frErr
	}
	if after == nil {
		return nil, nil
	}
	return after(), nil
}

// emitSummary appends the final frontier summary line.
func emitSummary(f *Frontier, w io.Writer) error {
	summary, err := f.SummaryLine()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", summary)
	return err
}
