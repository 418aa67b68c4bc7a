package scenario

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sweep"
)

var update = flag.Bool("update", false, "regenerate golden files")

const fixturePath = "../../examples/scenarios.json"
const goldenPath = "testdata/batch.golden.json"

// BatchResult is the buffered outcome of a batch run, with results in
// input order: the reference the golden and the streaming-equivalence
// tests compare the driver's output against.
type BatchResult struct {
	Scenarios []Result `json:"scenarios"`
}

// Render formats the batch result as indented JSON.
func (b BatchResult) Render() (string, error) {
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// RunBatchCtx executes every scenario of the batch across at most workers
// goroutines (0 = GOMAXPROCS), each fully isolated, and collects the
// results in input order. A failing scenario aborts the batch with its
// name in the error; cancelling ctx stops scheduling scenarios and aborts
// the running ones mid-simulation.
func RunBatchCtx(ctx context.Context, b Batch, workers int) (BatchResult, error) {
	if err := b.Validate(); err != nil {
		return BatchResult{}, err
	}
	results, err := sweep.MapCtx(ctx, len(b.Scenarios), workers, func(ctx context.Context, i int) (Result, error) {
		res, err := RunCtx(ctx, b.Scenarios[i])
		if err != nil {
			return Result{}, fmt.Errorf("scenario %q: %w", b.Scenarios[i].Name, err)
		}
		return res, nil
	})
	if err != nil {
		return BatchResult{}, err
	}
	return BatchResult{Scenarios: results}, nil
}

func loadFixture(t *testing.T) Batch {
	t.Helper()
	f, err := os.Open(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := LoadBatch(f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBatchGolden runs the example batch and compares the rendered JSON
// against the checked-in golden output. Regenerate with:
//
//	go test ./internal/scenario -run TestBatchGolden -update
func TestBatchGolden(t *testing.T) {
	b := loadFixture(t)
	res, err := RunBatchCtx(t.Context(), b, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Render()
	if err != nil {
		t.Fatal(err)
	}
	got += "\n"

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", goldenPath)
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("batch output drifted from %s (run with -update to regenerate)\ngot:\n%s\nwant:\n%s",
			goldenPath, got, want)
	}
}

// TestBatchParallelDeterministic runs the batch at several worker counts and
// demands byte-identical renders: scenario isolation means fan-out cannot
// change results or their order.
func TestBatchParallelDeterministic(t *testing.T) {
	b := loadFixture(t)
	// Trim to two scenarios and shorten the workloads to keep the repeated
	// runs cheap; determinism does not depend on trace length.
	b.Scenarios = b.Scenarios[:2]
	for i := range b.Scenarios {
		b.Scenarios[i].Accesses = 20000
	}
	var first string
	for _, workers := range []int{1, 2, 4} {
		res, err := RunBatchCtx(t.Context(), b, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out, err := res.Render()
		if err != nil {
			t.Fatal(err)
		}
		if first == "" {
			first = out
			continue
		}
		if out != first {
			t.Fatalf("workers=%d produced different bytes than workers=1", workers)
		}
	}
}

func TestBatchValidate(t *testing.T) {
	cases := map[string]string{
		"empty batch":    `{"scenarios":[]}`,
		"duplicate name": `{"scenarios":[{"name":"a","l1_kb":16,"l2_kb":512,"workload":"tpcc"},{"name":"a","l1_kb":16,"l2_kb":512,"workload":"tpcc"}]}`,
		"bad member":     `{"scenarios":[{"name":"a","l1_kb":0,"l2_kb":512,"workload":"tpcc"}]}`,
		"unknown field":  `{"scenarios":[],"bogus":1}`,
	}
	for label, js := range cases {
		if _, err := LoadBatch(strings.NewReader(js)); err == nil {
			t.Errorf("%s accepted", label)
		}
	}
}

func TestIsBatch(t *testing.T) {
	if !IsBatch([]byte(`{"scenarios":[]}`)) {
		t.Error("batch not recognized")
	}
	if IsBatch([]byte(`{"name":"x"}`)) {
		t.Error("single config misread as batch")
	}
	if IsBatch([]byte(`garbage`)) {
		t.Error("garbage misread as batch")
	}
}
