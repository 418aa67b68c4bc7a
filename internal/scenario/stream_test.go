package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/work"
)

const streamGoldenPath = "testdata/stream.golden.ndjson"

// streamFixture streams the example batch through the unified driver and
// returns the raw output.
func streamFixture(t *testing.T, workers int) string {
	t.Helper()
	b := loadFixture(t)
	var buf bytes.Buffer
	if err := work.Run(t.Context(), b, work.Options{Workers: workers}, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestStreamGolden pins the NDJSON stream of the example batch against the
// checked-in golden file. Regenerate with:
//
//	go test ./internal/scenario -run TestStreamGolden -update
func TestStreamGolden(t *testing.T) {
	got := streamFixture(t, 0)
	if *update {
		if err := os.WriteFile(streamGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", streamGoldenPath)
		return
	}
	want, err := os.ReadFile(streamGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("stream output drifted from %s (run with -update to regenerate)\ngot:\n%s\nwant:\n%s",
			streamGoldenPath, got, want)
	}
}

// TestStreamMatchesBatch is the streaming-equivalence contract: with no
// cancellation, the NDJSON stream carries one line per scenario, in input
// order, each byte-identical to the compact rendering of the corresponding
// entry in the buffered BatchResult — streaming changes framing, never
// content.
func TestStreamMatchesBatch(t *testing.T) {
	b := loadFixture(t)
	buffered, err := RunBatchCtx(t.Context(), b, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		out := streamFixture(t, workers)
		lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
		if len(lines) != len(buffered.Scenarios) {
			t.Fatalf("workers=%d: %d NDJSON lines for %d scenarios", workers, len(lines), len(buffered.Scenarios))
		}
		for i, line := range lines {
			if !json.Valid([]byte(line)) {
				t.Fatalf("workers=%d: line %d is not valid JSON: %q", workers, i, line)
			}
			want, err := buffered.Scenarios[i].NDJSONLine()
			if err != nil {
				t.Fatal(err)
			}
			if line != string(want) {
				t.Errorf("workers=%d: line %d differs from buffered result\n got: %s\nwant: %s",
					workers, i, line, want)
			}
			var probe struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal([]byte(line), &probe); err != nil || probe.Name != b.Scenarios[i].Name {
				t.Errorf("workers=%d: line %d is %q, want scenario %q", workers, i, probe.Name, b.Scenarios[i].Name)
			}
		}
	}
}

// TestStreamBatchCancelled checks a batch streamed through the unified
// driver under a cancelled context ends promptly with context.Canceled and
// without emitting every line.
func TestStreamBatchCancelled(t *testing.T) {
	b := loadFixture(t)
	// Enough accesses that cancellation strikes mid-simulation.
	for i := range b.Scenarios {
		b.Scenarios[i].Accesses = 5_000_000
	}
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	var buf bytes.Buffer
	if err := work.Run(ctx, b, work.Options{Workers: 2}, &buf); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := strings.Count(buf.String(), "\n"); n == len(b.Scenarios) {
		t.Fatal("cancelled stream still delivered every scenario")
	}
}

// TestRunBatchCtxCancelled checks the buffered path reports cancellation.
func TestRunBatchCtxCancelled(t *testing.T) {
	b := loadFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunBatchCtx(ctx, b, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
