package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist/journal"
	"repro/internal/dist/store"
	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/scenario"
	"repro/internal/work"
)

const testBatch = `{"scenarios":[
	{"name":"a","l1_kb":16,"l2_kb":256,"workload":"tpcc","accesses":20000},
	{"name":"b","l1_kb":16,"l2_kb":512,"workload":"tpcc","accesses":20000},
	{"name":"c","l1_kb":32,"l2_kb":256,"workload":"tpcc","accesses":20000}
]}`

// syncBuffer lets the test read a buffer that serve's goroutine writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var servingRE = regexp.MustCompile(`serving \d+ \w+ on (http://[^\s]+)`)

// startServe launches `sweepd serve` in a goroutine on an ephemeral port
// and returns the coordinator URL plus a wait func for (exit code, stdout).
func startServe(t *testing.T, ctx context.Context, args []string, stdin string) (string, func() (int, string)) {
	t.Helper()
	stdout, stderr := &syncBuffer{}, &syncBuffer{}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("serve stderr:\n%s", stderr.String())
		}
	})
	code := make(chan int, 1)
	go func() {
		code <- run(ctx, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...), strings.NewReader(stdin), stdout, stderr)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := servingRE.FindStringSubmatch(stderr.String()); m != nil {
			return m[1], func() (int, string) {
				select {
				case c := <-code:
					return c, stdout.String()
				case <-time.After(30 * time.Second):
					t.Fatalf("serve did not exit; stderr:\n%s", stderr.String())
					return -1, ""
				}
			}
		}
		select {
		case c := <-code:
			t.Fatalf("serve exited %d before listening; stderr:\n%s", c, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never announced its address; stderr:\n%s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runWork runs one `sweepd work` loop to completion; extra flags are
// appended to the standard set.
func runWorkCmd(t *testing.T, ctx context.Context, url, id string, extra ...string) int {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := append([]string{"work", "-coordinator", url, "-id", id, "-workers", "1", "-poll", "10ms"}, extra...)
	code := run(ctx, args, strings.NewReader(""), &stdout, &stderr)
	if code != 0 {
		t.Logf("worker %s stderr:\n%s", id, stderr.String())
	}
	return code
}

// TestServeWorkMatchesSequentialStream is the end-to-end acceptance check
// at the binary level: serve + two work loops produce byte-identical
// NDJSON to the sequential in-process stream of the same batch.
func TestServeWorkMatchesSequentialStream(t *testing.T) {
	b, err := scenario.LoadBatch(strings.NewReader(testBatch))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := work.Run(t.Context(), b, work.Options{Workers: 1}, &want); err != nil {
		t.Fatal(err)
	}

	ctx := t.Context()
	url, wait := startServe(t, ctx, []string{"-units", "3"}, testBatch)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if code := runWorkCmd(t, ctx, url, id); code != 0 {
				t.Errorf("worker %s: exit %d", id, code)
			}
		}(fmt.Sprintf("w%d", i))
	}
	wg.Wait()
	code, stdout := wait()
	if code != 0 {
		t.Fatalf("serve: exit %d", code)
	}
	if stdout != want.String() {
		t.Errorf("distributed output differs from sequential:\n got: %q\nwant: %q", stdout, want.String())
	}
}

// TestServeCheckpointResume restarts a checkpointed serve against a
// journal cut back to one completed scenario and checks the resumed serve
// emits exactly the remainder.
func TestServeCheckpointResume(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "serve.journal")
	ctx := t.Context()

	// First serve completes the whole batch, journaling it.
	url, wait := startServe(t, ctx, []string{"-units", "3", "-checkpoint", jpath}, testBatch)
	if code := runWorkCmd(t, ctx, url, "w0"); code != 0 {
		t.Fatalf("worker: exit %d", code)
	}
	code, full := wait()
	if code != 0 {
		t.Fatalf("serve: exit %d", code)
	}
	lines := strings.SplitAfter(full, "\n")
	if len(lines) != 4 || lines[3] != "" {
		t.Fatalf("serve emitted %d lines", len(lines)-1)
	}

	// Kill simulation: journal keeps only the header and first entry.
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	jlines := strings.SplitAfter(string(data), "\n")
	if err := os.WriteFile(jpath, []byte(jlines[0]+jlines[1]), 0o644); err != nil {
		t.Fatal(err)
	}

	url, wait = startServe(t, ctx, []string{"-units", "3", "-checkpoint", jpath, "-resume"}, testBatch)
	if code := runWorkCmd(t, ctx, url, "w1"); code != 0 {
		t.Fatalf("resume worker: exit %d", code)
	}
	code, resumed := wait()
	if code != 0 {
		t.Fatalf("resumed serve: exit %d", code)
	}
	if want := lines[1] + lines[2]; resumed != want {
		t.Errorf("resumed serve must emit only the remainder:\n got: %q\nwant: %q", resumed, want)
	}
}

// TestServeExperimentsMatchesDriver checks the experiments serve mode at
// the binary level: serve -experiments -quick plus a worker with no scale
// flags emit the same NDJSON frames the unified driver produces for the
// same selection with a quick environment.
func TestServeExperimentsMatchesDriver(t *testing.T) {
	wb, err := exp.NewBatch([]string{"tab-fit"}, exp.NewQuickEnv())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := work.Run(t.Context(), wb, work.Options{Workers: 1}, &want); err != nil {
		t.Fatal(err)
	}

	ctx := t.Context()
	url, wait := startServe(t, ctx, []string{"-experiments", "-ids", "tab-fit", "-quick"}, "")
	if code := runWorkCmd(t, ctx, url, "w0"); code != 0 {
		t.Fatalf("worker: exit %d", code)
	}
	code, stdout := wait()
	if code != 0 {
		t.Fatalf("serve: exit %d", code)
	}
	if stdout != want.String() {
		t.Errorf("experiments serve differs from driver:\n got: %q\nwant: %q", stdout, want.String())
	}
}

// TestServeWorkWithToken runs a token-gated sweep end to end: a worker
// without the secret is rejected, one with it completes the batch.
func TestServeWorkWithToken(t *testing.T) {
	ctx := t.Context()
	url, wait := startServe(t, ctx, []string{"-units", "2", "-token", "s3cret"}, testBatch)

	var stderr bytes.Buffer
	code := run(ctx, []string{"work", "-coordinator", url, "-id", "intruder", "-poll", "10ms"},
		strings.NewReader(""), &bytes.Buffer{}, &stderr)
	if code == 0 || !strings.Contains(stderr.String(), "401") {
		t.Fatalf("tokenless worker: exit %d, stderr %q; want a 401 failure", code, stderr.String())
	}

	if code := runWorkCmd(t, ctx, url, "w0", "-token", "s3cret"); code != 0 {
		t.Fatalf("token worker: exit %d", code)
	}
	code, stdout := wait()
	if code != 0 {
		t.Fatalf("serve: exit %d", code)
	}
	if strings.Count(stdout, "\n") != 3 {
		t.Errorf("token-gated sweep emitted %q", stdout)
	}
}

// TestJournalSubcommand drives `sweepd journal` over a checkpointed sweep:
// a complete journal reassembles the full ordered result set; a journal
// cut back to one entry emits the prefix and exits 1 (0 with -partial);
// the wrong batch is refused on the hash.
func TestJournalSubcommand(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "serve.journal")
	ctx := t.Context()

	url, wait := startServe(t, ctx, []string{"-units", "3", "-checkpoint", jpath}, testBatch)
	if code := runWorkCmd(t, ctx, url, "w0"); code != 0 {
		t.Fatalf("worker: exit %d", code)
	}
	code, full := wait()
	if code != 0 {
		t.Fatalf("serve: exit %d", code)
	}

	// Complete journal: the reassembled set equals the serve emission.
	var stdout, stderr bytes.Buffer
	if code := run(ctx, []string{"journal", "-checkpoint", jpath}, strings.NewReader(testBatch), &stdout, &stderr); code != 0 {
		t.Fatalf("journal: exit %d, stderr: %s", code, stderr.String())
	}
	if stdout.String() != full {
		t.Errorf("journal reassembly differs from serve output:\n got: %q\nwant: %q", stdout.String(), full)
	}

	// Wrong input: the hash check refuses to reassemble.
	stderr.Reset()
	other := `{"name":"other","l1_kb":64,"l2_kb":1024,"workload":"tpcc","accesses":20000}`
	if code := run(ctx, []string{"journal", "-checkpoint", jpath}, strings.NewReader(other), &bytes.Buffer{}, &stderr); code != 1 ||
		!strings.Contains(stderr.String(), "batch hash mismatch") {
		t.Fatalf("mismatched journal: exit %d, stderr %q", code, stderr.String())
	}

	// Partial journal: prefix only, non-zero exit unless -partial.
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	jlines := strings.SplitAfter(string(data), "\n")
	if err := os.WriteFile(jpath, []byte(jlines[0]+jlines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(ctx, []string{"journal", "-checkpoint", jpath}, strings.NewReader(testBatch), &stdout, &stderr); code != 1 {
		t.Fatalf("incomplete journal: exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "journal incomplete: 1/3 scenarios") {
		t.Errorf("missing incompleteness diagnostic: %q", stderr.String())
	}
	fullLines := strings.SplitAfter(full, "\n")
	if want := fullLines[0]; stdout.String() != want {
		t.Errorf("partial reassembly:\n got: %q\nwant: %q", stdout.String(), want)
	}
	stdout.Reset()
	if code := run(ctx, []string{"journal", "-checkpoint", jpath, "-partial"}, strings.NewReader(testBatch), &stdout, &bytes.Buffer{}); code != 0 {
		t.Fatalf("journal -partial: exit %d, want 0", code)
	}
	if stdout.String() != fullLines[0] {
		t.Errorf("-partial emission: %q", stdout.String())
	}
}

// TestJournalStat drives `sweepd journal -stat`: a one-line JSON summary
// of a checkpoint's completion — computed from the journal alone, with no
// input batch on stdin or flags — exiting 0 when complete and 1 when not
// (0 with -partial), without emitting any result lines.
func TestJournalStat(t *testing.T) {
	b, err := scenario.LoadBatch(strings.NewReader(testBatch))
	if err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(t.TempDir(), "stat.journal")
	jr, done, err := work.OpenJournal(jpath, b, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := work.Run(t.Context(), b, work.Options{Workers: 1, Journal: jr, Done: done}, io.Discard); err != nil {
		t.Fatal(err)
	}
	jr.Close()
	hash, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}

	// Complete journal: summary on stdout, exit 0 — note the empty stdin;
	// -stat must not need the input batch.
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"journal", "-stat", "-checkpoint", jpath}, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("journal -stat: exit %d, stderr: %s", code, stderr.String())
	}
	var st journal.Stats
	if err := json.Unmarshal(stdout.Bytes(), &st); err != nil {
		t.Fatalf("summary is not JSON: %v (%q)", err, stdout.String())
	}
	want := journal.Stats{Kind: "scenario-batch", BatchSHA256: hash, N: 3, Done: 3, Complete: true}
	if st != want {
		t.Errorf("stat = %+v, want %+v", st, want)
	}
	if strings.Count(stdout.String(), "\n") != 1 {
		t.Errorf("-stat must emit exactly one line, got %q", stdout.String())
	}

	// Cut the journal back to one entry: Done drops, exit flips to 1
	// (back to 0 with -partial).
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	jlines := strings.SplitAfter(string(data), "\n")
	if err := os.WriteFile(jpath, []byte(jlines[0]+jlines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := run(t.Context(), []string{"journal", "-stat", "-checkpoint", jpath}, strings.NewReader(""), &stdout, &stderr); code != 1 {
		t.Fatalf("incomplete -stat: exit %d, want 1", code)
	}
	if err := json.Unmarshal(stdout.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 || st.Complete {
		t.Errorf("incomplete stat = %+v", st)
	}
	if code := run(t.Context(), []string{"journal", "-stat", "-partial", "-checkpoint", jpath}, strings.NewReader(""), &bytes.Buffer{}, &stderr); code != 0 {
		t.Fatalf("incomplete -stat -partial: exit %d, want 0", code)
	}

	// A missing file is a plain failure.
	if code := run(t.Context(), []string{"journal", "-stat", "-checkpoint", "/nonexistent.journal"}, strings.NewReader(""), &bytes.Buffer{}, &stderr); code != 1 {
		t.Fatalf("missing journal: exit %d, want 1", code)
	}
}

// TestJournalStatHostileHeader checks `sweepd journal -stat` on a header
// whose item count no batch can have: one error line and exit 1, never a
// panic or an allocation sized by the count.
func TestJournalStatHostileHeader(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "hostile.journal")
	head := `{"v":1,"kind":"scenario-batch","batch_sha256":"x","n":4611686018427387904}` + "\n"
	if err := os.WriteFile(jpath, []byte(head), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"journal", "-stat", "-checkpoint", jpath}, strings.NewReader(""), &stdout, &stderr); code != 1 {
		t.Fatalf("hostile header: exit %d, want 1", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("hostile header printed a summary: %q", stdout.String())
	}
	if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "sweepd: journal: header item count") {
		t.Errorf("want one error line about the item count, got %q", msg)
	}
}

// TestJournalExperimentsScale checks `sweepd journal -experiments` can
// replay an experiments checkpoint written at a non-default environment
// scale (e.g. by `figures -quick -accesses N -only tab-fit,tab-ext-area
// -stream -checkpoint`) when the scale flags match, and refuses it as a
// different batch when they do not. -ids names an extension ID like a
// registry ID, in any order.
func TestJournalExperimentsScale(t *testing.T) {
	env := exp.NewQuickEnv()
	env.Accesses = 20000
	wb, err := exp.NewBatch([]string{"tab-fit", "tab-ext-area"}, env)
	if err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(t.TempDir(), "exp.journal")
	jr, done, err := work.OpenJournal(jpath, wb, false)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := work.Run(t.Context(), wb, work.Options{Workers: 1, Journal: jr, Done: done}, &want); err != nil {
		t.Fatal(err)
	}
	jr.Close()

	var stdout, stderr bytes.Buffer
	args := []string{"journal", "-experiments", "-ids", "tab-ext-area,tab-fit", "-quick", "-accesses", "20000", "-checkpoint", jpath}
	if code := run(t.Context(), args, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("matching scale: exit %d, stderr: %s", code, stderr.String())
	}
	if stdout.String() != want.String() {
		t.Errorf("journal reassembly differs from the driver run:\n got: %q\nwant: %q", stdout.String(), want.String())
	}

	// Without the scale flags the batch hashes differently: refused.
	stderr.Reset()
	bad := []string{"journal", "-experiments", "-ids", "tab-fit,tab-ext-area", "-checkpoint", jpath}
	if code := run(t.Context(), bad, strings.NewReader(""), &bytes.Buffer{}, &stderr); code != 1 ||
		!strings.Contains(stderr.String(), "batch hash mismatch") {
		t.Fatalf("mismatched scale: exit %d, stderr %q", code, stderr.String())
	}
}

// TestServeGridMatchesDriver checks `serve -f` with a grid document
// distributes the spec's expanded point product and reassembles exactly
// the sequential driver's NDJSON — the third payload kind at the binary
// level.
func TestServeGridMatchesDriver(t *testing.T) {
	specJSON := `{"grid":{
		"axes":{"l1_kb":[16,32]},
		"base":{"l2_kb":256,"workload":"tpcc","accesses":20000}
	}}`
	specPath := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(specPath, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := grid.Load(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := work.Run(t.Context(), b, work.Options{Workers: 1}, &want); err != nil {
		t.Fatal(err)
	}

	ctx := t.Context()
	url, wait := startServe(t, ctx, []string{"-f", specPath, "-units", "2"}, "")
	if code := runWorkCmd(t, ctx, url, "gw0"); code != 0 {
		t.Fatalf("worker: exit %d", code)
	}
	code, stdout := wait()
	if code != 0 {
		t.Fatalf("serve: exit %d", code)
	}
	if stdout != want.String() {
		t.Errorf("distributed grid output differs from driver:\n got: %q\nwant: %q", stdout, want.String())
	}
}

// TestJournalReadsEveryDocumentAcrossCLIs pins one meaning per workload
// document: for a single config, a batch and a grid, each with and
// without a -fidelity default, `sweepd journal -f D [-fidelity F]` reads
// the journal of the batch `scenario -f D [-fidelity F] -stream
// -checkpoint` runs. Each reference batch is built here without
// grid.LoadWork, from the documented meaning: the grid's spec with its
// base fidelity set, then Expand; the batch through LoadBatch with every
// empty fidelity filled in; the single config as a batch of one.
func TestJournalReadsEveryDocumentAcrossCLIs(t *testing.T) {
	single := filepath.Join(t.TempDir(), "single.json")
	if err := os.WriteFile(single, []byte(`{"name":"solo","l1_kb":16,"l2_kb":256,"workload":"tpcc","accesses":20000}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fill := func(cfgs []scenario.Config, fid string) {
		for i := range cfgs {
			if cfgs[i].Fidelity == "" {
				cfgs[i].Fidelity = fid
			}
		}
	}
	docs := []struct {
		name, path string
		build      func(r io.Reader, fid string) (work.Batch, error)
	}{
		{"single", single, func(r io.Reader, fid string) (work.Batch, error) {
			cfg, err := scenario.Load(r)
			b := scenario.Batch{Scenarios: []scenario.Config{cfg}}
			fill(b.Scenarios, fid)
			return b, err
		}},
		{"batch", "../../examples/scenarios.json", func(r io.Reader, fid string) (work.Batch, error) {
			b, err := scenario.LoadBatch(r)
			fill(b.Scenarios, fid)
			return b, err
		}},
		{"grid", "../../examples/gridsweep/spec.json", func(r io.Reader, fid string) (work.Batch, error) {
			s, err := grid.Load(r)
			if err != nil {
				return nil, err
			}
			if s.Grid.Base.Fidelity == "" {
				s.Grid.Base.Fidelity = fid
			}
			return s.Expand()
		}},
	}
	for _, d := range docs {
		for _, fid := range []string{"", "analytical"} {
			t.Run(d.name+"/"+cmp.Or(fid, "default"), func(t *testing.T) {
				f, err := os.Open(d.path)
				if err != nil {
					t.Fatal(err)
				}
				b, err := d.build(f, fid)
				f.Close()
				if err != nil {
					t.Fatal(err)
				}
				jpath := filepath.Join(t.TempDir(), "run.journal")
				jr, done, err := work.OpenJournal(jpath, b, false)
				if err != nil {
					t.Fatal(err)
				}
				var want bytes.Buffer
				err = work.Run(t.Context(), b, work.Options{Journal: jr, Done: done}, &want)
				jr.Close()
				if err != nil {
					t.Fatal(err)
				}

				args := []string{"journal", "-f", d.path, "-checkpoint", jpath}
				if fid != "" {
					args = append(args, "-fidelity", fid)
				}
				var stdout, stderr bytes.Buffer
				if code := run(t.Context(), args, strings.NewReader(""), &stdout, &stderr); code != 0 {
					t.Fatalf("sweepd %s: exit %d, stderr: %s", strings.Join(args, " "), code, stderr.String())
				}
				if stdout.String() != want.String() {
					t.Errorf("journal reassembly differs from the run:\n got: %q\nwant: %q", stdout.String(), want.String())
				}
			})
		}
	}
}

var servingStoreRE = regexp.MustCompile(`serving batch queue on (http://[^\s]+)`)

// startServeStore launches `sweepd serve -store` in a goroutine on an
// ephemeral port and returns the service URL plus a wait func for (exit
// code, stderr). The service runs until ctx is cancelled.
func startServeStore(t *testing.T, ctx context.Context, dir string, extra ...string) (string, func() (int, string)) {
	t.Helper()
	stderr := &syncBuffer{}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("serve -store stderr:\n%s", stderr.String())
		}
	})
	code := make(chan int, 1)
	go func() {
		args := append([]string{"serve", "-store", dir, "-addr", "127.0.0.1:0"}, extra...)
		code <- run(ctx, args, strings.NewReader(""), &bytes.Buffer{}, stderr)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := servingStoreRE.FindStringSubmatch(stderr.String()); m != nil {
			return m[1], func() (int, string) {
				select {
				case c := <-code:
					return c, stderr.String()
				case <-time.After(30 * time.Second):
					t.Fatalf("serve -store did not exit; stderr:\n%s", stderr.String())
					return -1, ""
				}
			}
		}
		select {
		case c := <-code:
			t.Fatalf("serve -store exited %d before listening; stderr:\n%s", c, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve -store never announced its address; stderr:\n%s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runSubmitCmd runs one `sweepd submit` to completion.
func runSubmitCmd(t *testing.T, ctx context.Context, url, stdin string, extra ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := append([]string{"submit", "-coordinator", url}, extra...)
	code := run(ctx, args, strings.NewReader(stdin), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestServeStoreServiceLifecycle is the binary-level tentpole test: a
// `serve -store` service takes a batch over `sweepd submit -results`,
// streams NDJSON byte-identical to the sequential run, serves an
// identical resubmission from the store, leaves a journal `sweepd
// journal` can reassemble (hash-verified against the same input), and —
// after the service is stopped and restarted on the same store — serves
// the batch again with no worker attached at all.
func TestServeStoreServiceLifecycle(t *testing.T) {
	b, err := scenario.LoadBatch(strings.NewReader(testBatch))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := work.Run(t.Context(), b, work.Options{Workers: 1}, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	sctx, stopServe := context.WithCancel(t.Context())
	url, wait := startServeStore(t, sctx, dir, "-units", "3")

	// A worker polls the service until we stop it; its exit is the
	// cancellation, not a verdict.
	wctx, stopWorker := context.WithCancel(t.Context())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runWorkCmd(t, wctx, url, "w0")
	}()

	code, stdout, stderr := runSubmitCmd(t, t.Context(), url, testBatch, "-results")
	if code != 0 {
		t.Fatalf("submit: exit %d, stderr: %s", code, stderr)
	}
	if stdout != want.String() {
		t.Errorf("submitted batch output differs from sequential:\n got: %q\nwant: %q", stdout, want.String())
	}

	// Resubmission to the live service: idempotent — the existing done
	// batch answers immediately, still byte-identical.
	code, stdout, stderr = runSubmitCmd(t, t.Context(), url, testBatch, "-results")
	if code != 0 {
		t.Fatalf("resubmit: exit %d, stderr: %s", code, stderr)
	}
	if stdout != want.String() {
		t.Errorf("resubmitted output differs:\n got: %q\nwant: %q", stdout, want.String())
	}
	if !strings.Contains(stderr, "state done") {
		t.Errorf("resubmission ack must report the batch done: %q", stderr)
	}
	stopWorker()
	wg.Wait()
	stopServe()
	if c, serveErr := wait(); c != 0 {
		t.Fatalf("serve -store: exit %d, stderr:\n%s", c, serveErr)
	} else if !strings.Contains(serveErr, `"manifest"`) {
		t.Errorf("service left no manifest on stderr:\n%s", serveErr)
	}

	// Cross-read: the store's per-batch journal is a plain checkpoint
	// journal — `sweepd journal` verifies its hash against the same input
	// and reassembles the identical ordered result set.
	hash, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, store.BatchID(b.Kind(), hash)+".journal")
	var jout, jerr bytes.Buffer
	if code := run(t.Context(), []string{"journal", "-checkpoint", jpath}, strings.NewReader(testBatch), &jout, &jerr); code != 0 {
		t.Fatalf("journal over store entry: exit %d, stderr: %s", code, jerr.String())
	}
	if jout.String() != want.String() {
		t.Errorf("journal reassembly of store entry differs:\n got: %q\nwant: %q", jout.String(), want.String())
	}
	// And the hash check still guards it: the wrong input is refused.
	jerr.Reset()
	other := `{"name":"other","l1_kb":64,"l2_kb":1024,"workload":"tpcc","accesses":20000}`
	if code := run(t.Context(), []string{"journal", "-checkpoint", jpath}, strings.NewReader(other), &bytes.Buffer{}, &jerr); code != 1 ||
		!strings.Contains(jerr.String(), "batch hash mismatch") {
		t.Fatalf("journal with wrong input over store entry: exit %d, stderr %q", code, jerr.String())
	}

	// Restart on the same store: the batch is restored complete, so a
	// workerless service serves it entirely from the store.
	sctx2, stopServe2 := context.WithCancel(t.Context())
	url2, wait2 := startServeStore(t, sctx2, dir)
	code, stdout, stderr = runSubmitCmd(t, t.Context(), url2, testBatch, "-results")
	if code != 0 {
		t.Fatalf("submit after restart: exit %d, stderr: %s", code, stderr)
	}
	if stdout != want.String() {
		t.Errorf("restarted service output differs:\n got: %q\nwant: %q", stdout, want.String())
	}
	if !strings.Contains(stderr, "3 cached") || !strings.Contains(stderr, "state done") {
		t.Errorf("restart ack must report the store hit: %q", stderr)
	}
	stopServe2()
	if c, _ := wait2(); c != 0 {
		t.Fatalf("restarted serve -store: exit %d", c)
	}
}

// TestSubmitExperimentsRunsAtItsScale submits an experiments batch at a
// non-default scale to a default `serve -store` drained by a worker with
// no flags: the units carry the scale, so the service admits exactly the
// batch the submitter built and the worker runs it at that scale.
func TestSubmitExperimentsRunsAtItsScale(t *testing.T) {
	env := exp.NewQuickEnv()
	env.Accesses = 30000
	wb, err := exp.NewBatch([]string{"tab-missrates"}, env)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := wb.Hash()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := work.Run(t.Context(), wb, work.Options{Workers: 1}, &want); err != nil {
		t.Fatal(err)
	}

	sctx, stopServe := context.WithCancel(t.Context())
	url, wait := startServeStore(t, sctx, t.TempDir())
	wctx, stopWorker := context.WithCancel(t.Context())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runWorkCmd(t, wctx, url, "w0")
	}()
	code, stdout, stderr := runSubmitCmd(t, t.Context(), url, "",
		"-experiments", "-ids", "tab-missrates", "-quick", "-accesses", "30000", "-results")
	stopWorker()
	wg.Wait()
	stopServe()
	if c, _ := wait(); c != 0 {
		t.Errorf("serve -store: exit %d", c)
	}
	if code != 0 {
		t.Fatalf("submit: exit %d, stderr: %s", code, stderr)
	}
	if id := store.BatchID(exp.WorkKind, hash); !strings.Contains(stderr, "batch "+id+":") {
		t.Errorf("submit ack must name batch %s: %q", id, stderr)
	}
	if stdout != want.String() {
		t.Errorf("submitted experiments differ from the driver run:\n got: %q\nwant: %q", stdout, want.String())
	}
}

// TestJournalReadsSingleProcessCheckpointInStore pins the other direction
// of the format bridge at the binary level: a checkpoint journal written
// by the single-process driver, dropped into a store directory under the
// batch's ID, is adopted by a restarted service — submit finds the batch
// born done without any worker.
func TestJournalReadsSingleProcessCheckpointInStore(t *testing.T) {
	b, err := scenario.LoadBatch(strings.NewReader(testBatch))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt.journal")
	jr, done, err := work.OpenJournal(ckpt, b, false)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := work.Run(t.Context(), b, work.Options{Workers: 1, Journal: jr, Done: done}, &want); err != nil {
		t.Fatal(err)
	}
	jr.Close()

	dir := t.TempDir()
	hash, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, store.BatchID(b.Kind(), hash)+".journal"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	sctx, stopServe := context.WithCancel(t.Context())
	url, wait := startServeStore(t, sctx, dir)
	code, stdout, stderr := runSubmitCmd(t, t.Context(), url, testBatch, "-results")
	if code != 0 {
		t.Fatalf("submit: exit %d, stderr: %s", code, stderr)
	}
	if stdout != want.String() {
		t.Errorf("adopted checkpoint served differently:\n got: %q\nwant: %q", stdout, want.String())
	}
	if !strings.Contains(stderr, "3 cached") {
		t.Errorf("adoption ack must report the cache hit: %q", stderr)
	}
	stopServe()
	if c, _ := wait(); c != 0 {
		t.Fatalf("serve -store: exit %d", c)
	}
}

// TestFlagAndDispatchErrors pins the CLI error contract.
func TestFlagAndDispatchErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), nil, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("no subcommand: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "serve") || !strings.Contains(stderr.String(), "work") {
		t.Errorf("usage must list subcommands:\n%s", stderr.String())
	}
	stderr.Reset()
	if code := run(t.Context(), []string{"work"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("work without -coordinator: exit %d, want 2", code)
	}
	if code := run(t.Context(), []string{"serve", "-resume"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("serve -resume without -checkpoint: exit %d, want 2", code)
	}
	if code := run(t.Context(), []string{"serve", "-ids", "fig1"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("serve -ids without -experiments: exit %d, want 2", code)
	}
	if code := run(t.Context(), []string{"serve", "-experiments", "-f", "batch.json"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("serve -experiments with -f: exit %d, want 2", code)
	}
	if code := run(t.Context(), []string{"serve", "-quick"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("serve -quick without -experiments: exit %d, want 2", code)
	}
	if code := run(t.Context(), []string{"journal", "-checkpoint", "j", "-accesses", "5"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("journal -accesses without -experiments: exit %d, want 2", code)
	}
	if code := run(t.Context(), []string{"journal"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("journal without -checkpoint: exit %d, want 2", code)
	}
	if code := run(t.Context(), []string{"serve", "-experiments", "-ids", "no-such-artifact"}, strings.NewReader(""), &stdout, &stderr); code != 1 {
		t.Errorf("serve with unknown experiment id: exit %d, want 1", code)
	}
	if code := run(t.Context(), []string{"serve", "-f", "/nonexistent.json"}, strings.NewReader(""), &stdout, &stderr); code != 1 {
		t.Errorf("missing batch file: exit %d, want 1", code)
	}
	if code := run(t.Context(), []string{"bogus"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("unknown subcommand: exit %d, want 2", code)
	}
	if code := run(t.Context(), []string{"serve", "-store", "d", "-f", "b.json"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("serve -store with -f: exit %d, want 2", code)
	}
	if code := run(t.Context(), []string{"serve", "-store", "d", "-checkpoint", "j"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("serve -store with -checkpoint: exit %d, want 2", code)
	}
	if code := run(t.Context(), []string{"serve", "-store", "d", "-fidelity", "bogus"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("serve -store with bad -fidelity: exit %d, want 2", code)
	}
	if code := run(t.Context(), []string{"serve", "-store", "d", "-quick"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("serve -store with -quick: exit %d, want 2", code)
	}
	if code := run(t.Context(), []string{"work", "-coordinator", "http://x", "-quick"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("work -quick: exit %d, want 2", code)
	}
	if code := run(t.Context(), []string{"submit", "-f", "b.json"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("submit without -coordinator: exit %d, want 2", code)
	}
	if code := run(t.Context(), []string{"submit", "-coordinator", "http://x", "-ids", "fig1"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("submit -ids without -experiments: exit %d, want 2", code)
	}
}

// TestServeAcceptsSingleConfig checks a single scenario config serves as a
// batch of one.
func TestServeAcceptsSingleConfig(t *testing.T) {
	single := `{"name":"solo","l1_kb":16,"l2_kb":256,"workload":"tpcc","accesses":20000}`
	ctx := t.Context()
	url, wait := startServe(t, ctx, nil, single)
	if code := runWorkCmd(t, ctx, url, "w0"); code != 0 {
		t.Fatalf("worker: exit %d", code)
	}
	code, stdout := wait()
	if code != 0 {
		t.Fatalf("serve: exit %d", code)
	}
	if !strings.Contains(stdout, `"name":"solo"`) || strings.Count(stdout, "\n") != 1 {
		t.Errorf("unexpected single-config output: %q", stdout)
	}
}

// TestServeMetricsAddrAndManifests drives the fleet observability path at
// the binary level: serve with -metrics-addr exposes the coordinator's
// registry (plus pprof) on the debug listener and the same families on
// the worker protocol's /metrics while the batch is still pending; after
// a worker (itself running -metrics-addr) finishes the batch, both
// processes leave a manifest on stderr with matching batch accounting.
func TestServeMetricsAddrAndManifests(t *testing.T) {
	ctx := t.Context()
	stdout, stderr := &syncBuffer{}, &syncBuffer{}
	code := make(chan int, 1)
	go func() {
		code <- run(ctx, []string{"serve", "-addr", "127.0.0.1:0", "-units", "3", "-metrics-addr", "127.0.0.1:0"},
			strings.NewReader(testBatch), stdout, stderr)
	}()
	metricsRE := regexp.MustCompile(`sweepd: metrics on (http://[^\s]+)/metrics`)
	var url, murl string
	deadline := time.Now().Add(10 * time.Second)
	for url == "" || murl == "" {
		if m := servingRE.FindStringSubmatch(stderr.String()); m != nil {
			url = m[1]
		}
		if m := metricsRE.FindStringSubmatch(stderr.String()); m != nil {
			murl = m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never announced both listeners; stderr:\n%s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// No worker has leased anything yet, so the serve blocks and both
	// exposition surfaces are stable: the whole batch is pending.
	for _, target := range []string{murl + "/metrics", url + "/metrics"} {
		resp, err := http.Get(target)
		if err != nil {
			t.Fatalf("GET %s: %v", target, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", target, resp.StatusCode)
		}
		if want := "dist_queue_depth 1"; !strings.Contains(string(body), want) {
			t.Errorf("GET %s: exposition misses %q:\n%s", target, want, body)
		}
	}
	resp, err := http.Get(murl + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("GET pprof: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline: status %d", resp.StatusCode)
	}

	var wstdout, wstderr bytes.Buffer
	wcode := run(ctx, []string{"work", "-coordinator", url, "-id", "w0", "-workers", "1", "-poll", "10ms",
		"-metrics-addr", "127.0.0.1:0"}, strings.NewReader(""), &wstdout, &wstderr)
	if wcode != 0 {
		t.Fatalf("worker: exit %d, stderr:\n%s", wcode, wstderr.String())
	}
	if c := <-code; c != 0 {
		t.Fatalf("serve: exit %d, stderr:\n%s", c, stderr.String())
	}

	parse := func(name, text string) (m struct {
		Manifest struct {
			Tool        string `json:"tool"`
			Kind        string `json:"kind"`
			BatchSHA256 string `json:"batch_sha256"`
			Items       int    `json:"items"`
			ItemsRun    int    `json:"items_run"`
			Outcome     string `json:"outcome"`
		} `json:"manifest"`
	}) {
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, `{"manifest":`) {
				if err := json.Unmarshal([]byte(line), &m); err != nil {
					t.Fatalf("%s manifest does not parse: %v\n%s", name, err, line)
				}
				return m
			}
		}
		t.Fatalf("no %s manifest on stderr:\n%s", name, text)
		return m
	}
	sm := parse("serve", stderr.String()).Manifest
	if sm.Tool != "sweepd serve" || sm.Kind != "scenario-batch" || sm.Items != 3 || sm.ItemsRun != 3 ||
		sm.BatchSHA256 == "" || sm.Outcome != "ok" {
		t.Errorf("serve manifest: %+v", sm)
	}
	wm := parse("work", wstderr.String()).Manifest
	if wm.Tool != "sweepd work" || wm.Kind != "scenario-batch" || wm.Items != 3 || wm.ItemsRun != 3 ||
		wm.Outcome != "ok" {
		t.Errorf("work manifest: %+v", wm)
	}
	if !strings.Contains(wstderr.String(), "sweepd: metrics on http://") {
		t.Errorf("worker announced no metrics listener: %q", wstderr.String())
	}
}
