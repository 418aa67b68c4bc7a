package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dist/journal"
	"repro/internal/work"
)

// checkpointBatch is a small real batch (short simulations) for
// checkpoint tests.
func checkpointBatch(t *testing.T) Batch {
	t.Helper()
	b, err := LoadBatch(strings.NewReader(`{"scenarios":[
		{"name":"a","l1_kb":16,"l2_kb":256,"workload":"tpcc","accesses":20000},
		{"name":"b","l1_kb":16,"l2_kb":512,"workload":"tpcc","accesses":20000},
		{"name":"c","l1_kb":32,"l2_kb":256,"workload":"tpcc","accesses":20000}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointedMatchesPlainStream checks a fresh checkpointed run
// through the unified driver emits exactly the plain stream's bytes and
// journals every line.
func TestCheckpointedMatchesPlainStream(t *testing.T) {
	b := checkpointBatch(t)
	var want bytes.Buffer
	if err := work.Run(t.Context(), b, work.Options{Workers: 1}, &want); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "batch.journal")
	jr, done, err := work.OpenJournal(path, b, false)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := work.Run(t.Context(), b, work.Options{Workers: 2, Journal: jr, Done: done}, &got); err != nil {
		t.Fatal(err)
	}
	jr.Close()
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("checkpointed stream differs from plain stream:\n got: %s\nwant: %s", got.Bytes(), want.Bytes())
	}

	// The journal holds every line.
	h, err := work.Header(b)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := journal.Replay(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(b.Scenarios) {
		t.Errorf("journal has %d entries, want %d", len(replayed), len(b.Scenarios))
	}
}

// TestResumeEmitsOnlyRemainder simulates a crash after the first scenario
// (journal truncated to one entry plus a torn tail) and checks the resumed
// run re-emits nothing finished: its stdout is exactly the remainder, and
// prefix + remainder reassemble the full sequential stream byte for byte.
func TestResumeEmitsOnlyRemainder(t *testing.T) {
	b := checkpointBatch(t)
	var full bytes.Buffer
	if err := work.Run(t.Context(), b, work.Options{Workers: 1}, &full); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(full.String(), "\n")

	path := filepath.Join(t.TempDir(), "batch.journal")
	h, err := work.Header(b)
	if err != nil {
		t.Fatal(err)
	}
	jr, err := journal.Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Record(0, []byte(strings.TrimSuffix(lines[0], "\n"))); err != nil {
		t.Fatal(err)
	}
	jr.Close()
	// The crash tore the second entry mid-append.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"i":1,"line":{"name`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	jr, done, err := work.OpenJournal(path, b, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 {
		t.Fatalf("replayed %d entries, want 1", len(done))
	}
	var resumed bytes.Buffer
	if err := work.Run(t.Context(), b, work.Options{Workers: 1, Journal: jr, Done: done}, &resumed); err != nil {
		t.Fatal(err)
	}
	jr.Close()

	want := strings.Join(lines[1:], "")
	if resumed.String() != want {
		t.Errorf("resumed run must emit only the remainder:\n got: %q\nwant: %q", resumed.String(), want)
	}
	if lines[0]+resumed.String() != full.String() {
		t.Error("prefix + resumed output does not reassemble the sequential stream")
	}

	// A second resume finds everything done and emits nothing.
	jr, done, err = work.OpenJournal(path, b, true)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	var again bytes.Buffer
	if err := work.Run(t.Context(), b, work.Options{Journal: jr, Done: done}, &again); err != nil {
		t.Fatal(err)
	}
	if again.Len() != 0 {
		t.Errorf("fully journaled batch re-emitted %q", again.String())
	}
}

// TestBatchHashPinsContent checks the hash changes with the batch content
// (the resume-refusal key) and not with equivalent reloads.
func TestBatchHashPinsContent(t *testing.T) {
	b1 := checkpointBatch(t)
	b2 := checkpointBatch(t)
	h1, err := b1.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := b2.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("reloading the same batch must hash identically")
	}
	b2.Scenarios[2].L2KB = 1024
	h3, err := b2.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h3 {
		t.Error("different batches must hash differently")
	}
}
