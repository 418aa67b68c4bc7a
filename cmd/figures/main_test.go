package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/dist/journal"
	"repro/internal/exp"
)

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	ids := strings.Fields(stdout.String())
	if len(ids) != 12 {
		t.Fatalf("want 12 artifact IDs, got %d: %v", len(ids), ids)
	}
	for _, want := range []string{"fig1", "fig2", "tab-schemes", "tab-l2-single", "tab-fit"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Errorf("artifact %q missing from -list output", want)
		}
	}

	// -list prints the selection: with -ext, the registry then the ten
	// extensions; with -only, the named IDs in that order.
	stdout.Reset()
	if code := run(t.Context(), []string{"-list", "-ext"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list -ext: exit %d, stderr: %s", code, stderr.String())
	}
	if ids := strings.Fields(stdout.String()); len(ids) != 22 || ids[11] != "tab-fit" || ids[12] != "tab-ablation-model" {
		t.Fatalf("-list -ext printed %d IDs: %v", len(ids), ids)
	}
	stdout.Reset()
	if code := run(t.Context(), []string{"-list", "-only", "tab-ext-area,fig1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list -only: exit %d, stderr: %s", code, stderr.String())
	}
	if got := stdout.String(); got != "fig1\ntab-ext-area\n" {
		t.Fatalf("-list -only printed %q", got)
	}
}

func TestRunOnlyUnknownID(t *testing.T) {
	// A typo'd entry of a multi-ID selection must fail too, even though
	// the other entries match — silently dropping it would under-run the
	// request. Every case fails before anything runs: no artifact and no
	// "ok" manifest.
	for _, tc := range []struct {
		args []string
		bad  string
	}{
		{[]string{"-only", "fig99"}, `"fig99"`},
		{[]string{"-only", "tab-fit,tab-missrate"}, `"tab-missrate"`},
		{[]string{"-quick", "-accesses", "20000", "-ext", "-only", "tab-ext-typo"}, `"tab-ext-typo"`},
		{[]string{"-quick", "-accesses", "20000", "-ext", "-only", "tab-ext-typo", "-stream"}, `"tab-ext-typo"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(t.Context(), tc.args, &stdout, &stderr); code != 1 {
			t.Fatalf("%v: exit %d, want 1 (stderr: %s)", tc.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.bad) {
			t.Errorf("%v: diagnostic does not name the bad ID: %q", tc.args, stderr.String())
		}
		if stdout.Len() != 0 || strings.Contains(stderr.String(), `"outcome":"ok"`) {
			t.Errorf("%v: unknown ID still ran:\nstdout: %q\nstderr: %q", tc.args, stdout.String(), stderr.String())
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}

// TestRunStreamSingleArtifact checks -stream emits valid NDJSON for the
// cheapest registry artifact and keeps the run summary off stdout.
func TestRunStreamSingleArtifact(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(t.Context(), []string{"-quick", "-only", "tab-fit", "-stream"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("want 1 NDJSON line, got %d", len(lines))
	}
	var got exp.Line
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatalf("stream line is not JSON: %v\n%s", err, lines[0])
	}
	if got.ID != "tab-fit" || !strings.Contains(got.ASCII, "tab-fit") || got.CSV == "" {
		t.Errorf("unexpected stream line: %+v", got)
	}
	if !strings.Contains(stderr.String(), "streamed 1 artifacts") {
		t.Errorf("run summary missing from stderr: %q", stderr.String())
	}
}

// TestRunCancelled checks a cancelled run exits 130 with a diagnostic.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	code := run(ctx, []string{"-quick", "-only", "tab-fit"}, &stdout, &stderr)
	if code != cli.ExitCancelled {
		t.Fatalf("cancelled run: exit %d, want %d (stderr: %s)", code, cli.ExitCancelled, stderr.String())
	}
	if !strings.Contains(stderr.String(), "cancelled") {
		t.Errorf("no cancellation diagnostic: %q", stderr.String())
	}
}

// TestRunTimeout checks -timeout bounds the run with a non-zero exit.
func TestRunTimeout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(t.Context(), []string{"-timeout", "1ms"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("timed-out run: exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "timed out") {
		t.Errorf("no timeout diagnostic: %q", stderr.String())
	}
}

// tinyStreamArgs selects two cheap artifacts at a tiny trace length —
// fast enough to run the stream pipeline repeatedly.
var tinyStreamArgs = []string{"-quick", "-accesses", "20000", "-only", "tab-fit,tab-missrates", "-stream"}

// TestRunCheckpointResume simulates the kill/restart cycle for figures,
// mirroring cmd/scenario's: a checkpointed run whose journal is cut back
// to one completed artifact (with a torn second entry, as a kill
// mid-append leaves) is restarted with -resume; the restarted run
// re-emits nothing already journaled, completes the remainder, and
// prefix + remainder equals the uncheckpointed stream.
func TestRunCheckpointResume(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "figures.journal")

	// Reference: the full stream, no checkpointing.
	var full bytes.Buffer
	if code := run(t.Context(), tinyStreamArgs, &full, &bytes.Buffer{}); code != 0 {
		t.Fatalf("reference run: exit %d", code)
	}
	lines := strings.SplitAfter(full.String(), "\n")
	if len(lines) != 3 || lines[2] != "" {
		t.Fatalf("reference run produced %d lines", len(lines)-1)
	}

	// First checkpointed run (completes everything, byte-identically).
	args := append(append([]string{}, tinyStreamArgs...), "-checkpoint", jpath)
	var first bytes.Buffer
	if code := run(t.Context(), args, &first, &bytes.Buffer{}); code != 0 {
		t.Fatalf("checkpointed run: exit %d", code)
	}
	if first.String() != full.String() {
		t.Errorf("checkpointed output differs from plain stream:\n got: %q\nwant: %q", first.String(), full.String())
	}

	// Simulate the kill: journal keeps its header and first entry plus a
	// torn second entry.
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	jlines := strings.SplitAfter(string(data), "\n")
	torn := jlines[0] + jlines[1] + `{"i":1,"line":{"id":"tab`
	if err := os.WriteFile(jpath, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart with -resume (and -outdir): nothing journaled is re-emitted,
	// and the replayed artifact's CSV sidecar is regenerated from the
	// journal line — the crash may have landed before the sidecar write,
	// and the resumed run never re-runs that index.
	outdir := t.TempDir()
	var resumed, stderr bytes.Buffer
	code := run(t.Context(), append(append([]string{}, args...), "-resume", "-outdir", outdir), &resumed, &stderr)
	if code != 0 {
		t.Fatalf("resumed run: exit %d, stderr: %s", code, stderr.String())
	}
	if want := lines[1]; resumed.String() != want {
		t.Errorf("resumed run must emit exactly the remainder:\n got: %q\nwant: %q", resumed.String(), want)
	}
	if !strings.Contains(stderr.String(), "resuming, 1/2 experiments already journaled") {
		t.Errorf("missing resume diagnostic: %q", stderr.String())
	}
	for _, id := range []string{"tab-missrates", "tab-fit"} {
		if _, err := os.Stat(filepath.Join(outdir, id+".csv")); err != nil {
			t.Errorf("resumed run must leave a complete sidecar set: %v", err)
		}
	}

	// A second resume has nothing left to do and emits nothing.
	var empty bytes.Buffer
	if code := run(t.Context(), append(append([]string{}, args...), "-resume"), &empty, &bytes.Buffer{}); code != 0 {
		t.Fatalf("no-op resume: exit %d", code)
	}
	if empty.Len() != 0 {
		t.Errorf("fully journaled selection re-emitted %q", empty.String())
	}
}

// TestRunResumeRefusesDifferentSelection pins the safety check: resuming a
// journal against a different artifact selection fails loudly.
func TestRunResumeRefusesDifferentSelection(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "figures.journal")
	seed := []string{"-quick", "-accesses", "20000", "-only", "tab-fit", "-stream", "-checkpoint", jpath}
	if code := run(t.Context(), seed, &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
		t.Fatal("seed run failed")
	}
	other := []string{"-quick", "-accesses", "20000", "-only", "tab-missrates", "-stream", "-checkpoint", jpath, "-resume"}
	var stderr bytes.Buffer
	if code := run(t.Context(), other, &bytes.Buffer{}, &stderr); code != 1 {
		t.Fatalf("mismatched resume: exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "batch hash mismatch") {
		t.Errorf("missing hash-mismatch diagnostic: %q", stderr.String())
	}
}

// streamIDs parses an NDJSON artifact stream into its IDs.
func streamIDs(t *testing.T, stream string) []string {
	t.Helper()
	var ids []string
	for _, line := range strings.SplitAfter(stream, "\n") {
		if line == "" {
			continue
		}
		var l exp.Line
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatalf("stream line is not JSON: %v\n%s", err, line)
		}
		ids = append(ids, l.ID)
	}
	return ids
}

// TestRunOnlyMixesRegistryAndExtension checks a selection naming both a
// registry and an extension ID emits both, buffered and streamed, with
// or without -ext.
func TestRunOnlyMixesRegistryAndExtension(t *testing.T) {
	for _, extra := range [][]string{{"-ext"}, nil} {
		args := append([]string{"-quick", "-accesses", "20000", "-only", "tab-fit,tab-ext-area"}, extra...)
		var stdout, stderr bytes.Buffer
		if code := run(t.Context(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, code, stderr.String())
		}
		out := stdout.String()
		if !strings.Contains(out, "tab-fit —") || !strings.Contains(out, "tab-ext-area —") ||
			!strings.Contains(out, "regenerated 2 artifacts") {
			t.Errorf("%v: buffered run did not print both artifacts:\n%s", args, out)
		}

		stdout.Reset()
		if code := run(t.Context(), append(args, "-stream"), &stdout, &stderr); code != 0 {
			t.Fatalf("%v -stream: exit %d, stderr: %s", args, code, stderr.String())
		}
		if ids := streamIDs(t, stdout.String()); !slices.Equal(ids, []string{"tab-fit", "tab-ext-area"}) {
			t.Errorf("%v -stream: streamed %v, want tab-fit, tab-ext-area", args, ids)
		}
	}
}

// TestRunCheckpointFlagValidation pins the flag contract.
func TestRunCheckpointFlagValidation(t *testing.T) {
	var stderr bytes.Buffer
	if code := run(t.Context(), []string{"-resume"}, &bytes.Buffer{}, &stderr); code != 2 {
		t.Errorf("-resume without -checkpoint: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run(t.Context(), []string{"-checkpoint", "x.journal"}, &bytes.Buffer{}, &stderr); code != 2 {
		t.Errorf("-checkpoint without -stream: exit %d, want 2", code)
	}

	// -ext checkpoints like any selection: a run whose journal is cut
	// back to its first entry resumes with exactly the remainder.
	jpath := filepath.Join(t.TempDir(), "ext.journal")
	args := []string{"-quick", "-accesses", "20000", "-ext", "-stream", "-checkpoint", jpath}
	var full bytes.Buffer
	if code := run(t.Context(), args, &full, &stderr); code != 0 {
		t.Fatalf("-stream -ext -checkpoint: exit %d, stderr: %s", code, stderr.String())
	}
	lines := strings.SplitAfter(full.String(), "\n")
	if len(lines) != 23 {
		t.Fatalf("-ext streamed %d lines, want 22", len(lines)-1)
	}
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	jlines := strings.SplitAfter(string(data), "\n")
	if err := os.WriteFile(jpath, []byte(jlines[0]+jlines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	var resumed bytes.Buffer
	if code := run(t.Context(), append(args, "-resume"), &resumed, &stderr); code != 0 {
		t.Fatalf("-resume: exit %d, stderr: %s", code, stderr.String())
	}
	var first journal.Entry
	if err := json.Unmarshal([]byte(jlines[1]), &first); err != nil {
		t.Fatal(err)
	}
	want := strings.Join(slices.Delete(lines, first.I, first.I+1), "")
	if resumed.String() != want {
		t.Errorf("resumed run must emit exactly the remainder:\n got: %q\nwant: %q", resumed.String(), want)
	}
}

// TestRunOnlyMultipleIDs checks a comma-separated -only selects exactly
// the named artifacts in registry-then-extension order, whatever the flag
// order; -ext widens only the default selection, so it filters nothing
// in.
func TestRunOnlyMultipleIDs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{tinyStreamArgs, []string{"tab-missrates", "tab-fit"}},
		{[]string{"-quick", "-accesses", "20000", "-stream", "-ext", "-only", "tab-ext-area"}, []string{"tab-ext-area"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(t.Context(), tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", tc.args, code, stderr.String())
		}
		if ids := streamIDs(t, stdout.String()); !slices.Equal(ids, tc.want) {
			t.Errorf("%v: streamed %v, want %v", tc.args, ids, tc.want)
		}
	}
}

// TestRunSingleArtifact exercises the compute path end to end on the
// cheapest registry entry (tab-fit needs only the two fitted models, no
// workload simulation) and checks both ASCII and CSV outputs.
func TestRunSingleArtifact(t *testing.T) {
	outdir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run(t.Context(), []string{"-quick", "-only", "tab-fit", "-outdir", outdir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "tab-fit") || !strings.Contains(out, "regenerated 1 artifacts") {
		t.Errorf("unexpected output:\n%s", out)
	}
	f, err := os.Open(filepath.Join(outdir, "tab-fit.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("CSV output unparsable: %v", err)
	}
	if len(recs) < 2 || recs[0][0] != "cache" {
		t.Errorf("unexpected CSV: %v", recs)
	}
}

// TestRunMetricsAddrAndManifest pins the observability contract of a
// stream run: -metrics-addr announces its listener on stderr without
// changing a byte of stdout, and the run ends with a one-line manifest
// carrying the batch identity and counts.
func TestRunMetricsAddrAndManifest(t *testing.T) {
	var base bytes.Buffer
	if code := run(t.Context(), tinyStreamArgs, &base, &bytes.Buffer{}); code != 0 {
		t.Fatalf("baseline run: exit %d", code)
	}

	var stdout, stderr bytes.Buffer
	code := run(t.Context(), append(append([]string{}, tinyStreamArgs...), "-metrics-addr", "127.0.0.1:0"), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if stdout.String() != base.String() {
		t.Errorf("stdout changed with -metrics-addr:\n got: %q\nwant: %q", stdout.String(), base.String())
	}
	if !strings.Contains(stderr.String(), "figures: metrics on http://") {
		t.Errorf("no metrics listener announcement on stderr: %q", stderr.String())
	}
	var man cli.Manifest
	found := false
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, `{"manifest":`) {
			var wrap struct {
				Manifest cli.Manifest `json:"manifest"`
			}
			if err := json.Unmarshal([]byte(line), &wrap); err != nil {
				t.Fatalf("manifest line does not parse: %v\n%s", err, line)
			}
			man, found = wrap.Manifest, true
		}
	}
	if !found {
		t.Fatalf("no manifest line on stderr:\n%s", stderr.String())
	}
	switch {
	case man.Tool != "figures":
		t.Errorf("manifest tool %q, want figures", man.Tool)
	case man.Kind == "" || man.BatchSHA256 == "":
		t.Errorf("manifest misses the batch identity: %+v", man)
	case man.Items != 2 || man.ItemsRun != 2:
		t.Errorf("manifest counts: %+v", man)
	case man.Outcome != "ok":
		t.Errorf("manifest outcome %q, want ok", man.Outcome)
	}
}
