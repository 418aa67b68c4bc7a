package exp

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/work"
)

// renderAll flattens a full artifact list (ASCII + CSV forms) into one byte
// stream for whole-run comparison.
func renderAll(t *testing.T, e *Env) string {
	t.Helper()
	arts, err := e.AllCtx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != len(Experiments()) {
		t.Fatalf("got %d artifacts, want %d", len(arts), len(Experiments()))
	}
	var b strings.Builder
	for _, a := range arts {
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
func TestAllParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuilds four cold environments")
	}
	seq := renderAll(t, tinyEnv(1))
	for _, workers := range []int{0, 2, 8} {
		par := renderAll(t, tinyEnv(workers))
		if par != seq {
			t.Fatalf("workers=%d output differs from sequential run", workers)
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
	arts, err := tinyEnv(1).AllCtx(t.Context())
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
	if _, err := e.AllCtx(ctx); !errors.Is(err, context.Canceled) {
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

// TestRegistryIDsStable pins the artifact registry: IDs are part of the CLI
// surface (figures -only/-list) and of the CSV file names.
func TestRegistryIDsStable(t *testing.T) {
	want := []string{
		"fig1", "tab-schemes", "tab-assignments", "tab-knob", "tab-missrates",
		"tab-l2-single", "tab-l2-split", "tab-l1", "fig2", "tab-fig2-summary",
		"tab-baseline", "tab-fit",
	}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(exps), len(want))
	}
	for i, x := range exps {
		if x.ID != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, x.ID, want[i])
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
