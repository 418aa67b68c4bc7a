package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/grid"
)

// Masks for the parts of a stderr line that differ run to run: listener
// addresses, the ticker's rate and ETA suffix, and durations.
var (
	addrRE = regexp.MustCompile(`http://[^\s/]+`)
	rateRE = regexp.MustCompile(`, [0-9.]+ \w+/s(, ~\S+ left)?`)
	durRE  = regexp.MustCompile(` in [0-9][0-9.a-zµ]*$`)
)

// splitStderr splits a run's stderr into its one manifest — without
// wall_ms and items_per_sec, which vary run to run — and its other lines
// in order, masked. Where the manifest line falls is not part of the
// contract.
func splitStderr(t *testing.T, stderr string) (map[string]any, []string) {
	t.Helper()
	var man map[string]any
	lines := []string{}
	for _, line := range strings.Split(strings.TrimSuffix(stderr, "\n"), "\n") {
		if !strings.HasPrefix(line, `{"manifest":`) {
			line = addrRE.ReplaceAllString(line, "http://ADDR")
			line = rateRE.ReplaceAllString(line, "")
			lines = append(lines, durRE.ReplaceAllString(line, " in DURATION"))
			continue
		}
		if man != nil {
			t.Fatalf("a second manifest line: %s\nstderr:\n%s", line, stderr)
		}
		var wrap struct {
			Manifest map[string]any `json:"manifest"`
		}
		if err := json.Unmarshal([]byte(line), &wrap); err != nil {
			t.Fatalf("manifest line does not parse: %v\n%s", err, line)
		}
		man = wrap.Manifest
		delete(man, "wall_ms")
		delete(man, "items_per_sec")
	}
	if man == nil {
		t.Fatalf("no manifest line on stderr:\n%s", stderr)
	}
	return man, lines
}

// checkStderr compares a run's stderr with its contract: the manifest
// (a JSON object) and the other lines.
func checkStderr(t *testing.T, stderr, wantManifest string, wantLines []string) {
	t.Helper()
	man, lines := splitStderr(t, stderr)
	var want map[string]any
	if err := json.Unmarshal([]byte(wantManifest), &want); err != nil {
		t.Fatalf("bad expected manifest %s: %v", wantManifest, err)
	}
	if !reflect.DeepEqual(man, want) {
		got, _ := json.Marshal(man)
		t.Errorf("manifest:\n got %s\nwant %s", got, wantManifest)
	}
	if !reflect.DeepEqual(lines, wantLines) {
		t.Errorf("stderr lines:\n got %q\nwant %q", lines, wantLines)
	}
}

// batchHash is the content hash of a document as scenario loads it.
func batchHash(t *testing.T, doc, fidelity string) string {
	t.Helper()
	b, _, err := grid.LoadWork([]byte(doc), fidelity)
	if err != nil {
		t.Fatal(err)
	}
	h, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// cutJournal cuts a checkpoint journal back to its header and first
// entry, as a run killed after one line leaves it.
func cutJournal(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if err := os.WriteFile(path, []byte(lines[0]+lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStderrContract pins what each shape of a scenario run writes to
// stderr: exactly one manifest, with every field but the timing ones, and
// every other line in order (addresses, rates and durations masked).
func TestStderrContract(t *testing.T) {
	const batch = `{"scenarios":[` + tinyScenario +
		`,{"name":"second","l1_kb":16,"l2_kb":512,"workload":"tpcc","accesses":20000}]}`
	batchSHA := batchHash(t, batch, "analytical")
	gridSHA := batchHash(t, tinyGrid, "analytical")
	refineSHA := batchHash(t, tinyGrid, "")
	for _, tc := range []struct {
		name string
		// args run the shape; "J" names the row's checkpoint journal.
		args []string
		in   string
		// prep, when set, runs first with these args; its journal is then
		// cut back to one entry, so the row resumes the remainder.
		prep     []string
		manifest string
		lines    []string
	}{
		{
			name:     "buffered",
			args:     []string{"-fidelity", "analytical", "-workers", "1", "-progress", "-metrics-addr", "127.0.0.1:0"},
			in:       batch,
			manifest: fmt.Sprintf(`{"tool":"scenario","kind":"scenario-batch","batch_sha256":%q,"fidelity":"analytical","items":2,"items_run":2,"outcome":"ok"}`, batchSHA),
			lines:    []string{"scenario: metrics on http://ADDR/metrics", "scenario: 1/2 scenarios", "scenario: 2/2 scenarios"},
		},
		{
			name:     "stream",
			args:     []string{"-fidelity", "analytical", "-stream", "-progress"},
			in:       batch,
			manifest: fmt.Sprintf(`{"tool":"scenario","kind":"scenario-batch","batch_sha256":%q,"fidelity":"analytical","items":2,"items_run":2,"outcome":"ok"}`, batchSHA),
			lines:    []string{"scenario: 1/2 scenarios", "scenario: 2/2 scenarios"},
		},
		{
			name:     "stream checkpoint",
			args:     []string{"-fidelity", "analytical", "-stream", "-progress", "-checkpoint", "J"},
			in:       batch,
			manifest: fmt.Sprintf(`{"tool":"scenario","kind":"scenario-batch","batch_sha256":%q,"fidelity":"analytical","items":2,"items_run":2,"outcome":"ok"}`, batchSHA),
			lines:    []string{"scenario: 1/2 scenarios", "scenario: 2/2 scenarios"},
		},
		{
			name:     "stream resume",
			prep:     []string{"-fidelity", "analytical", "-stream", "-checkpoint", "J"},
			args:     []string{"-fidelity", "analytical", "-stream", "-progress", "-checkpoint", "J", "-resume"},
			in:       batch,
			manifest: fmt.Sprintf(`{"tool":"scenario","kind":"scenario-batch","batch_sha256":%q,"fidelity":"analytical","items":2,"items_run":1,"items_resumed":1,"outcome":"ok"}`, batchSHA),
			lines:    []string{"scenario: resuming, 1/2 scenarios already journaled", "scenario: 1/1 scenarios"},
		},
		{
			name:     "grid resume",
			prep:     []string{"-fidelity", "analytical", "-stream", "-frontier", "-checkpoint", "J"},
			args:     []string{"-fidelity", "analytical", "-stream", "-frontier", "-progress", "-checkpoint", "J", "-resume"},
			in:       tinyGrid,
			manifest: fmt.Sprintf(`{"tool":"scenario","kind":"grid","batch_sha256":%q,"fidelity":"analytical","items":2,"items_run":1,"items_resumed":1,"outcome":"ok"}`, gridSHA),
			lines:    []string{"scenario: resuming, 1/2 points already journaled", "scenario: 1/1 points"},
		},
		{
			// The refine ladder's manifest counts the analytical pass and
			// names no fidelity: each phase has its own.
			name:     "stream frontier-refine",
			args:     []string{"-stream", "-frontier-refine", "-progress", "-metrics-addr", "127.0.0.1:0"},
			in:       tinyGrid,
			manifest: fmt.Sprintf(`{"tool":"scenario","kind":"grid","batch_sha256":%q,"items":2,"items_run":2,"outcome":"ok"}`, refineSHA),
			lines: []string{
				"scenario: metrics on http://ADDR/metrics",
				"scenario [analytical]: 1/2 points", "scenario [analytical]: 2/2 points",
				"scenario [refine]: 1/2 points", "scenario [refine]: 2/2 points",
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "run.journal")
			withJournal := func(args []string) []string {
				out := append([]string(nil), args...)
				for i, a := range out {
					if a == "J" {
						out[i] = journal
					}
				}
				return out
			}
			if tc.prep != nil {
				if code := run(t.Context(), withJournal(tc.prep), strings.NewReader(tc.in), &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
					t.Fatalf("prep run: exit %d", code)
				}
				cutJournal(t, journal)
			}
			var stderr bytes.Buffer
			if code := run(t.Context(), withJournal(tc.args), strings.NewReader(tc.in), &bytes.Buffer{}, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			checkStderr(t, stderr.String(), tc.manifest, tc.lines)
		})
	}
}
