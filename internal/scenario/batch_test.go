package scenario

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate golden files")

const fixturePath = "../../examples/scenarios.json"
const goldenPath = "testdata/batch.golden.json"

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
