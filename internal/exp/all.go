package exp

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/sweep"
)

// Artifact is one reproduced figure or table.
type Artifact struct {
	ID     string
	Figure *Figure // nil for tables
	Table  *Table  // nil for figures
}

// Render returns the artifact's ASCII form.
func (a Artifact) Render() string {
	if a.Figure != nil {
		return a.Figure.ASCII()
	}
	if a.Table != nil {
		return a.Table.ASCII()
	}
	return "(empty artifact)\n"
}

// CSV returns the artifact's CSV form.
func (a Artifact) CSV() string {
	if a.Figure != nil {
		return a.Figure.CSV()
	}
	if a.Table != nil {
		return a.Table.CSV()
	}
	return ""
}

// Experiment is one entry of the evaluation: a stable artifact ID and the
// builder that regenerates it from an environment. Builders honor the
// context: cancellation aborts their internal sweeps.
type Experiment struct {
	ID  string
	Run func(context.Context, *Env) (Artifact, error)
}

// figExp wraps a figure builder (as a method expression, receiver first) as
// an Experiment.
func figExp(id string, f func(*Env, context.Context) (Figure, error)) Experiment {
	return Experiment{ID: id, Run: func(ctx context.Context, e *Env) (Artifact, error) {
		fig, err := f(e, ctx)
		if err != nil {
			return Artifact{}, err
		}
		return Artifact{ID: fig.ID, Figure: &fig}, nil
	}}
}

// tabExp wraps a table builder as an Experiment.
func tabExp(id string, f func(*Env, context.Context) (Table, error)) Experiment {
	return Experiment{ID: id, Run: func(ctx context.Context, e *Env) (Artifact, error) {
		tab, err := f(e, ctx)
		if err != nil {
			return Artifact{}, err
		}
		return Artifact{ID: tab.ID, Table: &tab}, nil
	}}
}

// Experiments is the registry of the paper's evaluation in the paper's
// order. AllCtx runs the whole list; cmd/figures uses it to list artifact
// IDs and to run a single artifact without paying for the rest.
func Experiments() []Experiment {
	return []Experiment{
		figExp("fig1", (*Env).Fig1),
		tabExp("tab-schemes", (*Env).SchemeComparison),
		tabExp("tab-assignments", (*Env).SchemeAssignments),
		tabExp("tab-knob", (*Env).KnobSensitivity),
		tabExp("tab-missrates", (*Env).MissRateTable),
		tabExp("tab-l2-single", func(e *Env, ctx context.Context) (Table, error) { return e.L2SizeSweep(ctx, false) }),
		tabExp("tab-l2-split", func(e *Env, ctx context.Context) (Table, error) { return e.L2SizeSweep(ctx, true) }),
		tabExp("tab-l1", (*Env).L1Sweep),
		figExp("fig2", (*Env).Fig2),
		tabExp("tab-fig2-summary", (*Env).Fig2Summary),
		tabExp("tab-baseline", (*Env).BaselineComparison),
		tabExp("tab-fit", (*Env).FitQuality),
	}
}

// AllCtx runs every experiment in the paper's order and returns the
// artifacts. Experiments fan out across e.Workers workers (the shared
// substrates are singleflight-memoized, so each model and miss matrix is
// still built once); artifacts are collected in registry order, so the
// output is byte-identical to a sequential run. An error in any experiment
// aborts the run: partial evaluations are worse than loud failures in a
// reproduction. Cancelling ctx stops scheduling experiments and aborts the
// sweeps inside running ones.
func (e *Env) AllCtx(ctx context.Context) ([]Artifact, error) {
	return e.RunExperimentsCtx(ctx, Experiments())
}

// RunExperimentsCtx runs a subset of the registry, preserving input order
// and reporting completions to e.Progress.
func (e *Env) RunExperimentsCtx(ctx context.Context, exps []Experiment) ([]Artifact, error) {
	var done atomic.Int64
	return sweep.MapCtx(ctx, len(exps), e.workers(), func(ctx context.Context, i int) (Artifact, error) {
		a, err := exps[i].Run(ctx, e)
		if err != nil {
			return Artifact{}, fmt.Errorf("exp: %s: %w", exps[i].ID, err)
		}
		if e.Progress != nil {
			e.Progress(int(done.Add(1)), len(exps))
		}
		return a, nil
	})
}
