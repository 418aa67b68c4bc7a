package exp

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/work"
)

// renderAll runs exps and flattens their artifacts (ASCII + CSV forms)
// into one byte stream for whole-run comparison. Each artifact must carry
// its experiment's ID: the builders take it from the table or figure they
// build, and the stream's "id" field and the CSV file names use it.
func renderAll(t *testing.T, e *Env, exps []Experiment) string {
	t.Helper()
	arts, err := e.RunExperimentsCtx(t.Context(), exps)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != len(exps) {
		t.Fatalf("got %d artifacts, want %d", len(arts), len(exps))
	}
	var b strings.Builder
	for i, a := range arts {
		if a.ID != exps[i].ID {
			t.Fatalf("experiment %s built artifact %s", exps[i].ID, a.ID)
		}
		b.WriteString(a.ID)
		b.WriteString("\n")
		b.WriteString(a.Render())
		b.WriteString(a.CSV())
	}
	return b.String()
}

// tinyEnv returns a fresh environment small enough to rebuild repeatedly:
// determinism does not depend on trace length, only on per-shard seeding.
func tinyEnv(workers int) *Env {
	e := NewQuickEnv()
	e.Accesses = 100_000
	e.Workers = workers
	return e
}

// TestAllParallelByteIdentical is the sweep engine's contract test: three
// parallel runs at different worker counts must render (ASCII and CSV)
// byte-identically to a sequential run, each starting from a cold
// environment so matrices, models and caches are rebuilt under contention.
// The registry and the extensions both fan out, so both sign it.
func TestAllParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuilds four cold environments per experiment list")
	}
	for _, set := range []struct {
		name string
		exps []Experiment
	}{{"registry", Experiments()}, {"extensions", Extensions()}} {
		seq := renderAll(t, tinyEnv(1), set.exps)
		for _, workers := range []int{0, 2, 8} {
			if par := renderAll(t, tinyEnv(workers), set.exps); par != seq {
				t.Fatalf("%s: workers=%d output differs from sequential run", set.name, workers)
			}
		}
	}
}

// TestStreamExperimentsByteIdentical extends the engine contract to the
// streaming path: the full registry streamed through the unified driver at
// several worker counts must emit, in registry order, exactly the NDJSON
// lines of a buffered sequential run — streaming changes delivery, never
// content.
func TestStreamExperimentsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuilds cold environments")
	}
	arts, err := tinyEnv(1).RunExperimentsCtx(t.Context(), Experiments())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, a := range arts {
		line, err := a.NDJSONLine()
		if err != nil {
			t.Fatal(err)
		}
		want.Write(append(line, '\n'))
	}
	var ids []string
	for _, x := range Experiments() {
		ids = append(ids, x.ID)
	}
	for _, workers := range []int{1, 4} {
		b, err := NewBatch(ids, tinyEnv(workers))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := work.Run(t.Context(), b, work.Options{Workers: workers}, &got); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("workers=%d: streamed output differs from buffered sequential run", workers)
		}
	}
}

// TestRunExperimentsCtxCancel checks that a cancelled evaluation aborts
// promptly with context.Canceled instead of running the full registry.
func TestRunExperimentsCtxCancel(t *testing.T) {
	e := NewQuickEnv()
	e.Accesses = 100_000
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunExperimentsCtx(ctx, Experiments()); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestProgressReportsCompletion checks the Env.Progress hook sees every
// experiment exactly once with a plausible (done, total) pair.
func TestProgressReportsCompletion(t *testing.T) {
	e := env(t)
	old := e.Progress
	defer func() { e.Progress = old }()
	var calls atomic.Int64
	e.Progress = func(done, total int) {
		calls.Add(1)
		if done < 1 || done > total {
			t.Errorf("progress (%d, %d) out of range", done, total)
		}
	}
	var fit []Experiment
	for _, x := range Experiments() {
		if x.ID == "tab-fit" || x.ID == "fig1" {
			fit = append(fit, x)
		}
	}
	if _, err := e.RunExperimentsCtx(context.Background(), fit); err != nil {
		t.Fatal(err)
	}
	if int(calls.Load()) != len(fit) {
		t.Fatalf("progress called %d times for %d experiments", calls.Load(), len(fit))
	}
}

// TestRegistryIDsStable pins the artifact registry and the extension
// list in order: IDs are part of the CLI surface (figures -only/-list
// -ext, sweepd -ids) and of the CSV file names, and -ext emits the
// extensions in this order after the registry.
func TestRegistryIDsStable(t *testing.T) {
	for _, tc := range []struct {
		exps []Experiment
		want []string
	}{
		{Experiments(), []string{
			"fig1", "tab-schemes", "tab-assignments", "tab-knob", "tab-missrates",
			"tab-l2-single", "tab-l2-split", "tab-l1", "fig2", "tab-fig2-summary",
			"tab-baseline", "tab-fit",
		}},
		{Extensions(), []string{
			"tab-ablation-model", "tab-ablation-delay", "tab-ext-drowsy", "tab-ext-temp",
			"tab-ext-node", "tab-ablation-repl", "tab-ext-area", "tab-ext-cpi",
			"tab-ext-joint", "tab-ext-mem",
		}},
	} {
		var got []string
		for _, x := range tc.exps {
			got = append(got, x.ID)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("IDs = %v, want %v", got, tc.want)
		}
	}
}

// TestSelect pins the one ID-list rule every entry point shares.
func TestSelect(t *testing.T) {
	var registry, all []string
	for _, x := range Experiments() {
		registry = append(registry, x.ID)
	}
	all = append(all, registry...)
	for _, x := range Extensions() {
		all = append(all, x.ID)
	}
	for _, tc := range []struct {
		ids     string
		ext     bool
		want    []string
		wantErr string
	}{
		{ids: "", want: registry},
		{ids: "", ext: true, want: all},
		{ids: ",", want: registry},
		{ids: " , ", ext: true, want: all},
		{ids: "tab-ext-area,tab-fit", want: []string{"tab-fit", "tab-ext-area"}},
		{ids: "tab-ext-node,tab-ablation-model,fig2,fig1", want: []string{"fig1", "fig2", "tab-ablation-model", "tab-ext-node"}},
		{ids: "tab-fit", ext: true, want: []string{"tab-fit"}},
		{ids: "fig1,tab-ext-area,fig1,tab-ext-area", want: []string{"fig1", "tab-ext-area"}},
		{ids: " tab-ext-area ,, tab-fit ", want: []string{"tab-fit", "tab-ext-area"}},
		{ids: "tab-ext-typo", ext: true, wantErr: `"tab-ext-typo"`},
		{ids: "tab-fit,tab-missrate", wantErr: `"tab-missrate"`},
	} {
		exps, err := Select(tc.ids, tc.ext)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Select(%q, %v): error %v, want one naming %s", tc.ids, tc.ext, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("Select(%q, %v): %v", tc.ids, tc.ext, err)
			continue
		}
		var got []string
		for _, x := range exps {
			got = append(got, x.ID)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("Select(%q, %v) = %v, want %v", tc.ids, tc.ext, got, tc.want)
		}
	}
}

// TestRunExperimentsSubset checks that a single registry entry can run in
// isolation and reports its own ID on the artifact.
func TestRunExperimentsSubset(t *testing.T) {
	e := env(t)
	var fit []Experiment
	for _, x := range Experiments() {
		if x.ID == "tab-fit" {
			fit = append(fit, x)
		}
	}
	arts, err := e.RunExperimentsCtx(t.Context(), fit)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 1 || arts[0].ID != "tab-fit" || arts[0].Table == nil {
		t.Fatalf("subset run returned %+v", arts)
	}
}
