package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

const tinyScenario = `{"name":"smoke","l1_kb":16,"l2_kb":256,"workload":"tpcc","accesses":20000}`

func TestRunSingleFromStdin(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(t.Context(), nil, strings.NewReader(tinyScenario), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var res struct {
		Name string `json:"name"`
		L2   struct {
			Feasible bool `json:"feasible"`
		} `json:"l2_optimization"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	if res.Name != "smoke" || !res.L2.Feasible {
		t.Errorf("unexpected result: %+v", res)
	}
}

func TestRunBatchFromStdin(t *testing.T) {
	batch := `{"scenarios":[` + tinyScenario + `]}`
	var stdout, stderr bytes.Buffer
	code := run(t.Context(), []string{"-workers", "2"}, strings.NewReader(batch), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var res struct {
		Scenarios []struct {
			Name string `json:"name"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	if len(res.Scenarios) != 1 || res.Scenarios[0].Name != "smoke" {
		t.Errorf("unexpected batch result: %+v", res)
	}
}

// TestRunStreamNDJSON checks -stream emits one valid NDJSON line per
// scenario, in input order, with the same content as the buffered batch
// document.
func TestRunStreamNDJSON(t *testing.T) {
	batch := `{"scenarios":[` + tinyScenario + `,{"name":"second","l1_kb":16,"l2_kb":256,"workload":"tpcc","accesses":20000}]}`

	var buffered bytes.Buffer
	if code := run(t.Context(), nil, strings.NewReader(batch), &buffered, &bytes.Buffer{}); code != 0 {
		t.Fatalf("buffered run: exit %d", code)
	}
	var doc struct {
		Scenarios []json.RawMessage `json:"scenarios"`
	}
	if err := json.Unmarshal(buffered.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-stream"}, strings.NewReader(batch), &stdout, &stderr); code != 0 {
		t.Fatalf("stream run: exit %d, stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 NDJSON lines, got %d:\n%s", len(lines), stdout.String())
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("line %d is not JSON: %q", i, line)
		}
		// Compact the buffered entry for a byte-level content comparison.
		var compact bytes.Buffer
		if err := json.Compact(&compact, doc.Scenarios[i]); err != nil {
			t.Fatal(err)
		}
		if line != compact.String() {
			t.Errorf("line %d differs from buffered result\n got: %s\nwant: %s", i, line, compact.String())
		}
	}
}

// TestRunStreamSingle checks -stream also works for a single scenario.
func TestRunStreamSingle(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-stream"}, strings.NewReader(tinyScenario), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := strings.TrimRight(stdout.String(), "\n")
	if strings.Contains(out, "\n") || !json.Valid([]byte(out)) {
		t.Fatalf("want one JSON line, got:\n%s", stdout.String())
	}
}

// TestRunCancelled checks a cancelled run exits 130 with a partial-progress
// diagnostic on stderr.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	batch := `{"scenarios":[` + tinyScenario + `]}`
	var stdout, stderr bytes.Buffer
	code := run(ctx, nil, strings.NewReader(batch), &stdout, &stderr)
	if code != cli.ExitCancelled {
		t.Fatalf("cancelled run: exit %d, want %d (stderr: %s)", code, cli.ExitCancelled, stderr.String())
	}
	if !strings.Contains(stderr.String(), "cancelled") {
		t.Errorf("no cancellation diagnostic: %q", stderr.String())
	}
}

// TestRunTimeout checks an expired -timeout aborts with a non-zero exit
// and a timeout diagnostic.
func TestRunTimeout(t *testing.T) {
	batch := `{"scenarios":[{"name":"slow","l1_kb":16,"l2_kb":256,"workload":"tpcc","accesses":50000000}]}`
	var stdout, stderr bytes.Buffer
	code := run(t.Context(), []string{"-timeout", "50ms"}, strings.NewReader(batch), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("timed-out run: exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "timed out") {
		t.Errorf("no timeout diagnostic: %q", stderr.String())
	}
}

// TestRunStreamProgress checks -stream -progress writes ticker lines to
// stderr while keeping stdout pure NDJSON.
func TestRunStreamProgress(t *testing.T) {
	batch := `{"scenarios":[` + tinyScenario + `]}`
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-stream", "-progress"}, strings.NewReader(batch), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "scenario: 1/1 scenarios") {
		t.Errorf("progress ticker missing from stderr: %q", stderr.String())
	}
	for _, line := range strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n") {
		if !json.Valid([]byte(line)) {
			t.Errorf("stdout polluted by non-JSON line: %q", line)
		}
	}
}

func TestRunBadInput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), nil, strings.NewReader(`{"name":`), &stdout, &stderr); code != 1 {
		t.Errorf("malformed JSON: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "scenario:") {
		t.Errorf("no diagnostic on stderr: %q", stderr.String())
	}
}

func TestRunMissingFile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-f", "/nonexistent/x.json"}, strings.NewReader(""), &stdout, &stderr); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
}

func TestRunBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-definitely-not-a-flag"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}

// twoScenarioBatch is a batch whose full streamed output the checkpoint
// tests compare against.
const twoScenarioBatch = `{"scenarios":[` + tinyScenario +
	`,{"name":"second","l1_kb":16,"l2_kb":512,"workload":"tpcc","accesses":20000}` +
	`,{"name":"third","l1_kb":32,"l2_kb":256,"workload":"tpcc","accesses":20000}]}`

// TestRunCheckpointResume simulates the kill/restart cycle: a checkpointed
// run whose journal stops after the first scenario (with a torn final
// line, as a kill mid-append leaves) is restarted with -resume; the
// restarted run re-emits nothing already journaled, completes the
// remainder, and prefix + remainder equals the uncheckpointed stream.
func TestRunCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "run.journal")

	// Reference: the full stream, no checkpointing.
	var full bytes.Buffer
	if code := run(t.Context(), []string{"-stream"}, strings.NewReader(twoScenarioBatch), &full, &bytes.Buffer{}); code != 0 {
		t.Fatalf("reference run: exit %d", code)
	}
	lines := strings.SplitAfter(full.String(), "\n")
	if len(lines) != 4 || lines[3] != "" {
		t.Fatalf("reference run produced %d lines", len(lines)-1)
	}

	// First checkpointed run (completes everything).
	var first bytes.Buffer
	code := run(t.Context(), []string{"-stream", "-checkpoint", jpath}, strings.NewReader(twoScenarioBatch), &first, &bytes.Buffer{})
	if code != 0 {
		t.Fatalf("checkpointed run: exit %d", code)
	}
	if first.String() != full.String() {
		t.Errorf("checkpointed output differs from plain stream:\n got: %q\nwant: %q", first.String(), full.String())
	}

	// Simulate the kill: cut the journal back to header + first entry and
	// tear a partial second entry, as a crash mid-append would.
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	jlines := strings.SplitAfter(string(data), "\n")
	torn := jlines[0] + jlines[1] + `{"i":1,"line":{"name":"sec`
	if err := os.WriteFile(jpath, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart with -resume: nothing journaled is re-emitted.
	var resumed, stderr bytes.Buffer
	code = run(t.Context(), []string{"-stream", "-checkpoint", jpath, "-resume"}, strings.NewReader(twoScenarioBatch), &resumed, &stderr)
	if code != 0 {
		t.Fatalf("resumed run: exit %d, stderr: %s", code, stderr.String())
	}
	if want := lines[1] + lines[2]; resumed.String() != want {
		t.Errorf("resumed run must emit exactly the remainder:\n got: %q\nwant: %q", resumed.String(), want)
	}
	if !strings.Contains(stderr.String(), "resuming, 1/3 scenarios already journaled") {
		t.Errorf("missing resume diagnostic: %q", stderr.String())
	}

	// A second resume has nothing left to do and emits nothing.
	var empty bytes.Buffer
	code = run(t.Context(), []string{"-stream", "-checkpoint", jpath, "-resume"}, strings.NewReader(twoScenarioBatch), &empty, &bytes.Buffer{})
	if code != 0 {
		t.Fatalf("no-op resume: exit %d", code)
	}
	if empty.Len() != 0 {
		t.Errorf("fully journaled batch re-emitted %q", empty.String())
	}
}

// TestRunResumeRefusesDifferentBatch pins the safety check: resuming a
// journal against a batch that hashes differently fails loudly.
func TestRunResumeRefusesDifferentBatch(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "run.journal")
	batchA := `{"scenarios":[` + tinyScenario + `]}`
	if code := run(t.Context(), []string{"-stream", "-checkpoint", jpath}, strings.NewReader(batchA), &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
		t.Fatal("seed run failed")
	}
	batchB := `{"scenarios":[{"name":"other","l1_kb":64,"l2_kb":1024,"workload":"tpcc","accesses":20000}]}`
	var stderr bytes.Buffer
	if code := run(t.Context(), []string{"-stream", "-checkpoint", jpath, "-resume"}, strings.NewReader(batchB), &bytes.Buffer{}, &stderr); code != 1 {
		t.Fatalf("mismatched resume: exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "batch hash mismatch") {
		t.Errorf("missing hash-mismatch diagnostic: %q", stderr.String())
	}
}

// tinyGrid expands to two points (16KB and 32KB L1) over a 256KB L2.
const tinyGrid = `{"grid":{
	"axes":{"l1_kb":[16,32]},
	"base":{"l2_kb":256,"workload":"tpcc","accesses":20000}
}}`

// TestRunGridStreamFrontier runs a grid document end to end: one NDJSON
// result line per expanded point, in row-major order, plus the final
// {"frontier": [...]} summary — which must name only grid points.
func TestRunGridStreamFrontier(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-stream", "-frontier"}, strings.NewReader(tinyGrid), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 2 result lines + 1 frontier line, got %d:\n%s", len(lines), stdout.String())
	}
	for i, want := range []string{"g-l116-l2256-tpcc-s2", "g-l132-l2256-tpcc-s2"} {
		var res struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal([]byte(lines[i]), &res); err != nil || res.Name != want {
			t.Errorf("line %d names %q (err %v), want %q", i, res.Name, err, want)
		}
	}
	var summary struct {
		Frontier []struct {
			Name      string  `json:"name"`
			AMATPS    float64 `json:"amat_ps"`
			LeakageMW float64 `json:"leakage_mw"`
		} `json:"frontier"`
	}
	if err := json.Unmarshal([]byte(lines[2]), &summary); err != nil {
		t.Fatalf("frontier line is not JSON: %v\n%s", err, lines[2])
	}
	if len(summary.Frontier) == 0 {
		t.Fatal("frontier is empty for a feasible grid")
	}
	for _, p := range summary.Frontier {
		if !strings.HasPrefix(p.Name, "g-l1") {
			t.Errorf("frontier point %q is not a grid point", p.Name)
		}
		if p.AMATPS <= 0 || p.LeakageMW <= 0 {
			t.Errorf("frontier point %+v has non-positive coordinates", p)
		}
	}
}

// TestRunGridBufferedFrontier checks the buffered document gains the
// "frontier" field and still carries every expanded point.
func TestRunGridBufferedFrontier(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-frontier"}, strings.NewReader(tinyGrid), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var doc struct {
		Scenarios []struct {
			Name string `json:"name"`
		} `json:"scenarios"`
		Frontier []struct {
			Name string `json:"name"`
		} `json:"frontier"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	if len(doc.Scenarios) != 2 || doc.Scenarios[0].Name != "g-l116-l2256-tpcc-s2" {
		t.Errorf("unexpected scenarios: %+v", doc.Scenarios)
	}
	if len(doc.Frontier) == 0 {
		t.Error("buffered document has no frontier")
	}
}

// TestRunGridCheckpointResumeFrontier checks a resumed grid run re-emits
// only the remainder but its frontier summary still covers every point —
// including the journal-replayed ones.
func TestRunGridCheckpointResumeFrontier(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "grid.journal")
	var full bytes.Buffer
	if code := run(t.Context(), []string{"-stream", "-frontier", "-checkpoint", jpath}, strings.NewReader(tinyGrid), &full, &bytes.Buffer{}); code != 0 {
		t.Fatal("seed run failed")
	}
	fullLines := strings.Split(strings.TrimRight(full.String(), "\n"), "\n")

	var resumed, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-stream", "-frontier", "-checkpoint", jpath, "-resume"}, strings.NewReader(tinyGrid), &resumed, &stderr); code != 0 {
		t.Fatalf("resume: exit %d, stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(resumed.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("fully journaled resume emitted %d lines, want the frontier only:\n%s", len(lines), resumed.String())
	}
	if lines[0] != fullLines[len(fullLines)-1] {
		t.Errorf("resumed frontier %s\ndiffers from full run's %s", lines[0], fullLines[len(fullLines)-1])
	}
}

// TestRunFrontierRequiresGrid pins the flag contract.
func TestRunFrontierRequiresGrid(t *testing.T) {
	var stderr bytes.Buffer
	if code := run(t.Context(), []string{"-frontier"}, strings.NewReader(`{"scenarios":[`+tinyScenario+`]}`), &bytes.Buffer{}, &stderr); code != 2 {
		t.Errorf("-frontier on a batch: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "grid document") {
		t.Errorf("missing diagnostic: %q", stderr.String())
	}
	stderr.Reset()
	if code := run(t.Context(), []string{"-frontier"}, strings.NewReader(tinyScenario), &bytes.Buffer{}, &stderr); code != 2 {
		t.Errorf("-frontier on a single scenario: exit %d, want 2", code)
	}
}

// TestRunCheckpointFlagValidation pins the flag contract, and that a
// single config checkpoints like any batch: it is a batch of one.
func TestRunCheckpointFlagValidation(t *testing.T) {
	var stderr bytes.Buffer
	if code := run(t.Context(), []string{"-resume"}, strings.NewReader(tinyScenario), &bytes.Buffer{}, &stderr); code != 2 {
		t.Errorf("-resume without -checkpoint: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run(t.Context(), []string{"-checkpoint", "x.journal"}, strings.NewReader(tinyScenario), &bytes.Buffer{}, &stderr); code != 2 {
		t.Errorf("-checkpoint without -stream: exit %d, want 2", code)
	}

	jpath := filepath.Join(t.TempDir(), "single.journal")
	var first bytes.Buffer
	stderr.Reset()
	if code := run(t.Context(), []string{"-stream", "-checkpoint", jpath}, strings.NewReader(tinyScenario), &first, &stderr); code != 0 {
		t.Fatalf("-checkpoint with single-scenario input: exit %d, stderr: %s", code, stderr.String())
	}
	if strings.Count(first.String(), "\n") != 1 {
		t.Errorf("checkpointed single run emitted %q, want one line", first.String())
	}
	var resumed bytes.Buffer
	stderr.Reset()
	if code := run(t.Context(), []string{"-stream", "-checkpoint", jpath, "-resume"}, strings.NewReader(tinyScenario), &resumed, &stderr); code != 0 {
		t.Fatalf("single-scenario resume: exit %d, stderr: %s", code, stderr.String())
	}
	if resumed.Len() != 0 {
		t.Errorf("fully journaled single config re-emitted %q", resumed.String())
	}
}

// TestRunGridFrontierRefine runs the multi-fidelity ladder end to end:
// every analytical line, then the trace shortlist, then the refined
// frontier summary — with per-phase progress tickers on stderr.
func TestRunGridFrontierRefine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-stream", "-frontier-refine", "-progress"}, strings.NewReader(tinyGrid), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	// 2 analytical points + 1..2 shortlisted trace points + summary.
	if len(lines) < 4 || len(lines) > 5 {
		t.Fatalf("emitted %d lines, want 4 or 5:\n%s", len(lines), stdout.String())
	}
	for i, want := range []string{"g-l116-l2256-tpcc-s2", "g-l132-l2256-tpcc-s2"} {
		var res struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal([]byte(lines[i]), &res); err != nil || res.Name != want {
			t.Errorf("analytical line %d names %q (err %v), want %q", i, res.Name, err, want)
		}
	}
	var summary struct {
		Frontier []struct {
			Name string `json:"name"`
		} `json:"frontier"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatalf("summary line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(summary.Frontier) == 0 {
		t.Error("refined frontier is empty for a feasible grid")
	}
	for _, want := range []string{"scenario [analytical]: 2/2 points", "scenario [refine]:"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr missing per-phase ticker %q: %q", want, stderr.String())
		}
	}
}

// TestRunFrontierRefineFlagValidation pins the flag contract: exclusive
// with -frontier, requires -stream, owns the fidelity ladder, and needs a
// grid document.
func TestRunFrontierRefineFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		in   string
		want string
	}{
		{"with -frontier", []string{"-stream", "-frontier-refine", "-frontier"}, tinyGrid, "choose one of"},
		{"without -stream", []string{"-frontier-refine"}, tinyGrid, "requires -stream"},
		{"with -fidelity", []string{"-stream", "-frontier-refine", "-fidelity", "analytical"}, tinyGrid, "drop -fidelity"},
		{"non-grid input", []string{"-stream", "-frontier-refine"}, `{"scenarios":[` + tinyScenario + `]}`, "grid document"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if code := run(t.Context(), c.args, strings.NewReader(c.in), &bytes.Buffer{}, &stderr); code != 2 {
				t.Errorf("exit %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.want) {
				t.Errorf("stderr %q missing %q", stderr.String(), c.want)
			}
		})
	}
}

// manifestFrom extracts and parses the one-line end-of-run manifest a run
// leaves on stderr.
func manifestFrom(t *testing.T, stderr string) cli.Manifest {
	t.Helper()
	for _, line := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(line, `{"manifest":`) {
			var wrap struct {
				Manifest cli.Manifest `json:"manifest"`
			}
			if err := json.Unmarshal([]byte(line), &wrap); err != nil {
				t.Fatalf("manifest line does not parse: %v\n%s", err, line)
			}
			return wrap.Manifest
		}
	}
	t.Fatalf("no manifest line on stderr:\n%s", stderr)
	return cli.Manifest{}
}

// TestRunMetricsAddrAndManifest pins the observability contract of a
// batch run: -metrics-addr announces its listener on stderr without
// changing a byte of stdout (metrics are observation-only), and the run
// ends with a manifest carrying the batch identity and counts.
func TestRunMetricsAddrAndManifest(t *testing.T) {
	batch := `{"scenarios":[` + tinyScenario + `,{"name":"second","l1_kb":16,"l2_kb":512,"workload":"tpcc","accesses":20000}]}`

	var base bytes.Buffer
	if code := run(t.Context(), []string{"-stream"}, strings.NewReader(batch), &base, &bytes.Buffer{}); code != 0 {
		t.Fatalf("baseline run: exit %d", code)
	}

	var stdout, stderr bytes.Buffer
	code := run(t.Context(), []string{"-stream", "-metrics-addr", "127.0.0.1:0"}, strings.NewReader(batch), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if stdout.String() != base.String() {
		t.Errorf("stdout changed with -metrics-addr:\n got: %q\nwant: %q", stdout.String(), base.String())
	}
	if !strings.Contains(stderr.String(), "scenario: metrics on http://") {
		t.Errorf("no metrics listener announcement on stderr: %q", stderr.String())
	}
	man := manifestFrom(t, stderr.String())
	switch {
	case man.Tool != "scenario":
		t.Errorf("manifest tool %q, want scenario", man.Tool)
	case man.Kind != "scenario-batch":
		t.Errorf("manifest kind %q, want scenario-batch", man.Kind)
	case man.Items != 2 || man.ItemsRun != 2 || man.ItemsResumed != 0:
		t.Errorf("manifest counts: %+v", man)
	case man.BatchSHA256 == "":
		t.Error("manifest carries no batch hash")
	case man.Outcome != "ok":
		t.Errorf("manifest outcome %q, want ok", man.Outcome)
	}
}

// TestRunManifestResume checks a fully resumed run's manifest reports the
// replayed/executed split: everything resumed, nothing run, rate omitted.
func TestRunManifestResume(t *testing.T) {
	batch := `{"scenarios":[` + tinyScenario + `]}`
	jpath := filepath.Join(t.TempDir(), "run.journal")
	if code := run(t.Context(), []string{"-stream", "-checkpoint", jpath}, strings.NewReader(batch), &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
		t.Fatal("checkpointed run failed")
	}
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-stream", "-checkpoint", jpath, "-resume"}, strings.NewReader(batch), &stdout, &stderr); code != 0 {
		t.Fatalf("resumed run: exit %d, stderr: %s", code, stderr.String())
	}
	man := manifestFrom(t, stderr.String())
	if man.Items != 1 || man.ItemsResumed != 1 || man.ItemsRun != 0 {
		t.Errorf("resumed manifest counts: %+v", man)
	}
	if man.Outcome != "ok" || man.ItemsPerSec != 0 {
		t.Errorf("resumed manifest outcome/rate: %+v", man)
	}
}
