package exp

import (
	"context"
	"fmt"
	"slices"
	"strings"
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
// order. Select resolves ID lists against it and Extensions.
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

// Extensions lists the studies beyond the paper's own evaluation
// (extensions.go) in their bundle order. They are experiments like any
// other: each ID resolves wherever a registry ID does, so they stream,
// checkpoint and distribute through the same driver.
func Extensions() []Experiment {
	return []Experiment{
		tabExp("tab-ablation-model", (*Env).ModelVsDirectAblation),
		tabExp("tab-ablation-delay", (*Env).DelayCompositionAblation),
		tabExp("tab-ext-drowsy", (*Env).DrowsyExtension),
		tabExp("tab-ext-temp", (*Env).TemperatureSensitivity),
		tabExp("tab-ext-node", (*Env).NodeComparison),
		tabExp("tab-ablation-repl", (*Env).ReplacementAblation),
		tabExp("tab-ext-area", (*Env).AreaTable),
		tabExp("tab-ext-cpi", (*Env).SystemEnergyPerInstruction),
		tabExp("tab-ext-joint", (*Env).JointOptimization),
		tabExp("tab-ext-mem", (*Env).MemorySensitivity),
	}
}

// Select is the one rule for what a comma-separated experiment ID list
// means. A list with no IDs selects the registry, plus the extensions
// when ext is set. Otherwise it selects the named experiments, each once,
// in registry-then-extension order — so the batch, and the checkpoint
// hash pinning it, do not depend on how the IDs were typed. Any unknown
// ID is an error that names it.
func Select(ids string, ext bool) ([]Experiment, error) {
	var named []string
	for _, id := range strings.Split(ids, ",") {
		if id = strings.TrimSpace(id); id != "" {
			named = append(named, id)
		}
	}
	all := append(Experiments(), Extensions()...)
	if len(named) == 0 {
		if ext {
			return all, nil
		}
		return Experiments(), nil
	}
	if _, err := findExperiments(named); err != nil {
		return nil, err
	}
	return slices.DeleteFunc(all, func(x Experiment) bool { return !slices.Contains(named, x.ID) }), nil
}

// RunExperimentsCtx runs a list of experiments (any Select result) across
// e.Workers workers, reporting completions to e.Progress, and returns the
// artifacts in input order — byte-identical to a sequential run. An error
// in any experiment aborts the run: partial evaluations are worse than
// loud failures in a reproduction. Cancelling ctx stops scheduling
// experiments and aborts the sweeps inside running ones.
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
