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

	"repro/internal/exp"
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

// TestStderrContract pins what each shape of a figures run writes to
// stderr: exactly one manifest, with every field but the timing ones, and
// every other line in order (addresses, rates and durations masked). The
// buffered run's manifest names no kind: it runs outside the work
// registry.
func TestStderrContract(t *testing.T) {
	scale := []string{"-quick", "-accesses", "20000", "-fidelity", "analytical", "-only", "tab-fit,tab-missrates"}
	exps, err := exp.Select("tab-fit,tab-missrates", false)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(exps))
	for i, x := range exps {
		ids[i] = x.ID
	}
	env := exp.NewQuickEnv()
	env.Accesses, env.Fidelity = 20000, "analytical"
	b, err := exp.NewBatch(ids, env)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	streamed := fmt.Sprintf(`{"tool":"figures","kind":"experiments","batch_sha256":%q,"fidelity":"analytical","items":2,"items_run":2,"outcome":"ok"}`, hash)
	for _, tc := range []struct {
		name string
		// args run the shape; "J" names the row's checkpoint journal.
		args []string
		// prep, when set, runs first with these args; its journal is then
		// cut back to one entry, so the row resumes the remainder.
		prep     []string
		manifest string
		lines    []string
	}{
		{
			name:     "buffered",
			args:     []string{"-workers", "1", "-progress", "-metrics-addr", "127.0.0.1:0"},
			manifest: `{"tool":"figures","fidelity":"analytical","items":2,"items_run":2,"outcome":"ok"}`,
			lines:    []string{"figures: metrics on http://ADDR/metrics", "figures: 1/2 experiments", "figures: 2/2 experiments"},
		},
		{
			name:     "stream",
			args:     []string{"-stream", "-progress", "-metrics-addr", "127.0.0.1:0"},
			manifest: streamed,
			lines: []string{"figures: metrics on http://ADDR/metrics", "figures: 1/2 experiments", "figures: 2/2 experiments",
				"figures: streamed 2 artifacts in DURATION"},
		},
		{
			name:     "stream checkpoint",
			args:     []string{"-stream", "-progress", "-checkpoint", "J"},
			manifest: streamed,
			lines:    []string{"figures: 1/2 experiments", "figures: 2/2 experiments", "figures: streamed 2 artifacts in DURATION"},
		},
		{
			name:     "stream resume",
			prep:     []string{"-stream", "-checkpoint", "J"},
			args:     []string{"-stream", "-progress", "-checkpoint", "J", "-resume"},
			manifest: fmt.Sprintf(`{"tool":"figures","kind":"experiments","batch_sha256":%q,"fidelity":"analytical","items":2,"items_run":1,"items_resumed":1,"outcome":"ok"}`, hash),
			lines: []string{"figures: resuming, 1/2 experiments already journaled", "figures: 1/1 experiments",
				"figures: streamed 1 artifacts in DURATION"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "run.journal")
			withJournal := func(args []string) []string {
				out := append([]string(nil), scale...)
				for _, a := range args {
					if a == "J" {
						a = journal
					}
					out = append(out, a)
				}
				return out
			}
			if tc.prep != nil {
				if code := run(t.Context(), withJournal(tc.prep), &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
					t.Fatalf("prep run: exit %d", code)
				}
				data, err := os.ReadFile(journal)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.SplitAfter(string(data), "\n")
				if err := os.WriteFile(journal, []byte(lines[0]+lines[1]), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var stderr bytes.Buffer
			if code := run(t.Context(), withJournal(tc.args), &bytes.Buffer{}, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			man, lines := splitStderr(t, stderr.String())
			var want map[string]any
			if err := json.Unmarshal([]byte(tc.manifest), &want); err != nil {
				t.Fatalf("bad expected manifest %s: %v", tc.manifest, err)
			}
			if !reflect.DeepEqual(man, want) {
				got, _ := json.Marshal(man)
				t.Errorf("manifest:\n got %s\nwant %s", got, tc.manifest)
			}
			if !reflect.DeepEqual(lines, tc.lines) {
				t.Errorf("stderr lines:\n got %q\nwant %q", lines, tc.lines)
			}
		})
	}
}
