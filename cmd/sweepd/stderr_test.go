package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist/store"
	"repro/internal/grid"
)

// Masks for the parts of a stderr line that differ run to run: listener
// addresses, the ticker's rate and ETA suffix, and how an idle worker
// learns that a one-shot serve is over (a done lease, or a listener
// already closed) — a race the contract leaves open.
var (
	addrRE    = regexp.MustCompile(`http://[^\s/]+`)
	rateRE    = regexp.MustCompile(`, [0-9.]+ \w+/s(, ~\S+ left)?`)
	workEndRE = regexp.MustCompile(`^sweepd: (\S+)(: coordinator gone, assuming the sweep ended| done)$`)
)

// splitStderr splits a run's stderr into its manifest, if any — without
// wall_ms and items_per_sec, which vary run to run — and its other lines
// in order, masked. Where the manifest line falls is not part of the
// contract; a second manifest is a failure.
func splitStderr(t *testing.T, stderr string) (map[string]any, []string) {
	t.Helper()
	var man map[string]any
	lines := []string{}
	for _, line := range strings.Split(strings.TrimSuffix(stderr, "\n"), "\n") {
		if !strings.HasPrefix(line, `{"manifest":`) {
			line = addrRE.ReplaceAllString(line, "http://ADDR")
			line = rateRE.ReplaceAllString(line, "")
			lines = append(lines, workEndRE.ReplaceAllString(line, "sweepd: $1 END"))
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
	return man, lines
}

// checkStderr compares a run's stderr with its contract: the manifest
// (a JSON object, "" for none) and the other lines.
func checkStderr(t *testing.T, name, stderr, wantManifest string, wantLines []string) {
	t.Helper()
	man, lines := splitStderr(t, stderr)
	var want map[string]any
	if wantManifest != "" {
		if err := json.Unmarshal([]byte(wantManifest), &want); err != nil {
			t.Fatalf("bad expected manifest %s: %v", wantManifest, err)
		}
	}
	if !reflect.DeepEqual(man, want) {
		got, _ := json.Marshal(man)
		t.Errorf("%s manifest:\n got %s\nwant %s", name, got, wantManifest)
	}
	if !reflect.DeepEqual(lines, wantLines) {
		t.Errorf("%s stderr lines:\n got %q\nwant %q", name, lines, wantLines)
	}
}

// waitListening polls stderr until re announces the listener, and
// returns its first submatch.
func waitListening(t *testing.T, re *regexp.Regexp, stderr *syncBuffer, code chan int) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := re.FindStringSubmatch(stderr.String()); m != nil {
			return m[1]
		}
		select {
		case c := <-code:
			t.Fatalf("exited %d before listening; stderr:\n%s", c, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("never announced its address; stderr:\n%s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStderrContractServeWork pins what a one-shot serve and its worker
// write to stderr: exactly one manifest each, with every field but the
// timing ones, and every other line in order.
func TestStderrContractServeWork(t *testing.T) {
	b, _, err := grid.LoadWork([]byte(testBatch), "analytical")
	if err != nil {
		t.Fatal(err)
	}
	hash, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	stderr := &syncBuffer{}
	code := make(chan int, 1)
	go func() {
		code <- run(ctx, []string{"serve", "-addr", "127.0.0.1:0", "-units", "2", "-fidelity", "analytical", "-progress",
			"-metrics-addr", "127.0.0.1:0"}, strings.NewReader(testBatch), &bytes.Buffer{}, stderr)
	}()
	url := waitListening(t, servingRE, stderr, code)
	var wstderr bytes.Buffer
	if c := run(ctx, []string{"work", "-coordinator", url, "-id", "w0", "-workers", "1", "-poll", "10ms", "-progress",
		"-metrics-addr", "127.0.0.1:0"}, strings.NewReader(""), &bytes.Buffer{}, &wstderr); c != 0 {
		t.Fatalf("work: exit %d, stderr:\n%s", c, wstderr.String())
	}
	if c := <-code; c != 0 {
		t.Fatalf("serve: exit %d, stderr:\n%s", c, stderr.String())
	}
	checkStderr(t, "serve", stderr.String(),
		fmt.Sprintf(`{"tool":"sweepd serve","kind":"scenario-batch","batch_sha256":%q,"fidelity":"analytical","items":3,"items_run":3,"outcome":"ok"}`, hash),
		[]string{
			"sweepd: metrics on http://ADDR/metrics", "sweepd: serving 3 scenarios on http://ADDR",
			"sweepd: 1/3 scenarios", "sweepd: 2/3 scenarios", "sweepd: 3/3 scenarios",
		})
	checkStderr(t, "work", wstderr.String(),
		`{"tool":"sweepd work","kind":"scenario-batch","items":3,"items_run":3,"outcome":"ok"}`,
		[]string{
			"sweepd: metrics on http://ADDR/metrics",
			"sweepd: w0 finished unit 0 (items 0-0)", "sweepd: w0 finished unit 1 (items 1-2)",
			"sweepd: w0 END",
		})
}

// TestStderrContractServeStore pins what `serve -store` and `submit`
// write to stderr over one submitted batch: the service's log lines and
// its manifest, and the client's acknowledgement and verdict.
func TestStderrContractServeStore(t *testing.T) {
	b, _, err := grid.LoadWork([]byte(testBatch), "analytical")
	if err != nil {
		t.Fatal(err)
	}
	hash, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	id := store.BatchID(b.Kind(), hash)
	dir := t.TempDir()
	sctx, stopServe := context.WithCancel(t.Context())
	defer stopServe()
	stderr := &syncBuffer{}
	code := make(chan int, 1)
	go func() {
		code <- run(sctx, []string{"serve", "-store", dir, "-addr", "127.0.0.1:0", "-units", "2"},
			strings.NewReader(""), &bytes.Buffer{}, stderr)
	}()
	url := waitListening(t, servingStoreRE, stderr, code)

	wctx, stopWorker := context.WithCancel(t.Context())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		run(wctx, []string{"work", "-coordinator", url, "-id", "w0", "-workers", "1", "-poll", "10ms"},
			strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{})
	}()
	c, _, submitErr := runSubmitCmd(t, t.Context(), url, testBatch, "-fidelity", "analytical", "-results")
	stopWorker()
	wg.Wait()
	if c != 0 {
		t.Fatalf("submit: exit %d, stderr:\n%s", c, submitErr)
	}
	stopServe()
	if c := <-code; c != 0 {
		t.Fatalf("serve -store: exit %d, stderr:\n%s", c, stderr.String())
	}
	checkStderr(t, "submit", submitErr, "", []string{
		"sweepd: batch " + id + ": 3 scenarios, 0 cached, state queued",
		"sweepd: batch " + id + " done (3 executed, 0 cached)",
	})
	checkStderr(t, "serve -store", strings.ReplaceAll(stderr.String(), dir, "DIR"),
		`{"tool":"sweepd serve","items":3,"items_run":3,"outcome":"ok"}`,
		[]string{
			"sweepd: serving batch queue on http://ADDR (store DIR)",
			"sweepd: batch " + id + ": queued, 0/3 items cached",
			"sweepd: batch " + id + ": done (3 executed, 0 cached)",
			"sweepd: service stopped, store DIR holds 1 batches",
		})
}
