package store

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dist/journal"
	"repro/internal/scenario"
	"repro/internal/work"
)

// tinyBatch loads a small scenario batch; names parameterize it so tests
// can build distinct-but-overlapping batches.
func tinyBatch(t *testing.T, names ...string) scenario.Batch {
	t.Helper()
	var sc []string
	for _, n := range names {
		l1 := 16
		if strings.HasSuffix(n, "-big") {
			l1 = 32
		}
		sc = append(sc, fmt.Sprintf(
			`{"name":%q,"l1_kb":%d,"l2_kb":256,"workload":"tpcc","accesses":20000}`, n, l1))
	}
	b, err := scenario.LoadBatch(strings.NewReader(`{"scenarios":[` + strings.Join(sc, ",") + `]}`))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runAll executes every missing item of an admitted batch through the
// handle, as the service would.
func runAll(t *testing.T, h *Handle, b work.Batch) {
	t.Helper()
	done := h.Done
	for i := 0; i < b.Len(); i++ {
		if len(done) > 0 && done[0].I == i {
			done = done[1:]
			continue
		}
		line, err := b.RunItem(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Record(i, line); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdmitFreshThenResubmit pins the tentpole's core promise: a second
// admission of an identical batch finds every line in the store and
// reports them as own-journal hits.
func TestAdmitFreshThenResubmit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := tinyBatch(t, "a", "b")

	h, err := s.Admit(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Done) != 0 || h.HitsJournal != 0 || h.HitsIndex != 0 {
		t.Fatalf("fresh admission reported cached lines: %+v", h)
	}
	runAll(t, h, b)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	h2, err := s.Admit(b)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if len(h2.Done) != b.Len() || h2.HitsJournal != b.Len() || h2.HitsIndex != 0 {
		t.Fatalf("resubmission: done=%d journal=%d index=%d, want %d/%d/0",
			len(h2.Done), h2.HitsJournal, h2.HitsIndex, b.Len(), b.Len())
	}
	// The cached lines must be byte-identical to a fresh sequential run.
	for i := 0; i < b.Len(); i++ {
		want, err := b.RunItem(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		if e := h2.Done[i]; e.I != i || string(e.Line) != string(want) {
			t.Fatalf("entry %d is item %d, cached line:\n got %s\nwant %s", i, e.I, e.Line, want)
		}
	}
}

// TestOverlapAdoptsFromIndex pins per-item sharing: a new batch whose
// items overlap an earlier batch adopts the overlap from the index and
// copies it into its own journal, so a later resubmit needs no
// cross-reads.
func TestOverlapAdoptsFromIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	first := tinyBatch(t, "a", "b")
	h1, err := s.Admit(first)
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, h1, first)
	h1.Close()

	// Overlaps on "b", adds "c-big"; different batch hash, shared item.
	second := tinyBatch(t, "b", "c-big")
	h2, err := s.Admit(second)
	if err != nil {
		t.Fatal(err)
	}
	if h2.HitsIndex != 1 || h2.HitsJournal != 0 || len(h2.Done) != 1 {
		t.Fatalf("overlap admission: journal=%d index=%d done=%d, want 0/1/1",
			h2.HitsJournal, h2.HitsIndex, len(h2.Done))
	}
	want, err := first.RunItem(context.Background(), 1) // "b" in the first batch
	if err != nil {
		t.Fatal(err)
	}
	if e := h2.Done[0]; e.I != 0 || string(e.Line) != string(want) {
		t.Fatalf("adopted entry for item %d differs:\n got %s\nwant %s", e.I, e.Line, want)
	}
	runAll(t, h2, second)
	h2.Close()

	// Resubmit of the second batch: all lines now in its own journal.
	h3, err := s.Admit(second)
	if err != nil {
		t.Fatal(err)
	}
	defer h3.Close()
	if h3.HitsJournal != 2 || h3.HitsIndex != 0 {
		t.Fatalf("after adoption, resubmit: journal=%d index=%d, want 2/0", h3.HitsJournal, h3.HitsIndex)
	}
}

// TestAdoptSingleProcessCheckpoint pins the format bridge: a checkpoint
// journal written by the single-process driver (work.OpenJournal +
// work.Run), copied into the store under the batch's ID, is adopted
// hash-verified — and its lines become index-shareable.
func TestAdoptSingleProcessCheckpoint(t *testing.T) {
	b := tinyBatch(t, "a", "b")
	ckpt := filepath.Join(t.TempDir(), "ckpt.journal")
	jr, _, err := work.OpenJournal(ckpt, b, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := work.Run(context.Background(), b, work.Options{Workers: 1, Journal: jr}, io.Discard); err != nil {
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
	if err := os.WriteFile(filepath.Join(dir, BatchID(b.Kind(), hash)+".journal"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h, err := s.Admit(b)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.HitsJournal != b.Len() || len(h.Done) != b.Len() {
		t.Fatalf("adopted checkpoint: journal=%d done=%d, want %d", h.HitsJournal, len(h.Done), b.Len())
	}
	// First admission indexed the adopted lines: an overlapping batch hits.
	overlap := tinyBatch(t, "b")
	h2, err := s.Admit(overlap)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if h2.HitsIndex != 1 {
		t.Fatalf("overlap on adopted checkpoint: index hits = %d, want 1", h2.HitsIndex)
	}
}

// TestRestartListsBatchesInAdmissionOrder pins the restart path: spec
// records survive, in order, and rebuild runnable batches.
func TestRestartListsBatchesInAdmissionOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := tinyBatch(t, "a"), tinyBatch(t, "b", "c")
	for _, b := range []scenario.Batch{b1, b2} {
		h, err := s.Admit(b)
		if err != nil {
			t.Fatal(err)
		}
		h.Close()
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs := s2.Batches()
	if len(recs) != 2 {
		t.Fatalf("restart found %d records, want 2", len(recs))
	}
	if recs[0].Seq >= recs[1].Seq {
		t.Fatalf("records out of admission order: %d then %d", recs[0].Seq, recs[1].Seq)
	}
	for i, want := range []scenario.Batch{b1, b2} {
		rb, err := work.Unmarshal(recs[i].Kind, recs[i].Payload)
		if err != nil {
			t.Fatal(err)
		}
		wantHash, _ := want.Hash()
		gotHash, err := rb.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if gotHash != wantHash || recs[i].BatchSHA256 != wantHash {
			t.Fatalf("record %d rebuilds hash %s, want %s", i, gotHash, wantHash)
		}
	}
}

// TestTornIndexTailDiscarded pins items.idx crash tolerance: a torn
// final line is truncated away on open and later appends stay valid.
func TestTornIndexTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := tinyBatch(t, "a")
	h, err := s.Admit(b)
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, h, b)
	h.Close()
	s.Close()

	idx := filepath.Join(dir, "items.idx")
	f, err := os.OpenFile(idx, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"scenario/torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn index tail should be tolerated: %v", err)
	}
	defer s2.Close()
	if s2.Items() != 1 {
		t.Fatalf("index holds %d items after torn tail, want 1", s2.Items())
	}
	// The file itself was truncated back to valid NDJSON.
	data, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatalf("items.idx not truncated to complete lines: %q", data)
	}
}

// TestReplayReadsStoredJournal pins Store.Replay: the lines of a stored
// batch come back in input order, verified against the batch's header.
func TestReplayReadsStoredJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := tinyBatch(t, "a", "b")
	h, err := s.Admit(b)
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, h, b)
	h.Close()

	lines, err := s.Replay(h.Header)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != b.Len() || lines[0].I != 0 || lines[1].I != 1 {
		t.Fatalf("replayed %v, want items 0 and 1 in order", lines)
	}
	var decoded struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(lines[0].Line, &decoded); err != nil || decoded.Name != "a" {
		t.Fatalf("line 0 = %s (err %v), want scenario \"a\"", lines[0].Line, err)
	}
	wrongN := h.Header
	wrongN.N++
	if _, err := s.Replay(wrongN); err == nil || !strings.Contains(err.Error(), "items") {
		t.Fatalf("a header the journal does not pin must be refused, got %v", err)
	}
}

// TestWrongHashJournalRefused pins the identity check: a journal file
// whose header pins a different batch refuses admission instead of
// splicing foreign results.
func TestWrongHashJournalRefused(t *testing.T) {
	dir := t.TempDir()
	b := tinyBatch(t, "a")
	hash, _ := b.Hash()
	// A journal for a different batch, dropped in under this batch's name.
	jr, err := journal.Create(filepath.Join(dir, BatchID(b.Kind(), hash)+".journal"),
		journal.Header{Kind: b.Kind(), BatchSHA256: "0000", N: 1})
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Admit(b); err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("admission of mismatched journal: err = %v, want hash mismatch", err)
	}
}

// TestResetBatchFreesItsIndexKeys pins the documented batch reset: after
// a batch's journal and spec record are deleted, reopening the store
// ignores the index entries that pointed at it, so the batch that next
// executes those items indexes them and a later overlapping batch adopts
// them from there.
func TestResetBatchFreesItsIndexKeys(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := tinyBatch(t, "x", "y")
	h, err := s.Admit(a)
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, h, a)
	h.Close()
	s.Close()

	// Reset A: delete its two files, as docs/operations.md describes.
	for _, suffix := range []string{".journal", ".batch.json"} {
		if err := os.Remove(filepath.Join(dir, h.ID+suffix)); err != nil {
			t.Fatal(err)
		}
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Items() != 0 {
		t.Fatalf("index still maps %d items of the reset batch", s.Items())
	}

	// B re-runs x and y; C overlaps B on both and adopts them.
	b := tinyBatch(t, "x", "y", "z")
	hb, err := s.Admit(b)
	if err != nil {
		t.Fatal(err)
	}
	if hb.HitsIndex != 0 {
		t.Fatalf("B adopted %d items from the reset batch", hb.HitsIndex)
	}
	runAll(t, hb, b)
	hb.Close()
	c := tinyBatch(t, "y", "x", "w-big")
	hc, err := s.Admit(c)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	if hc.HitsIndex != 2 {
		t.Fatalf("C adopted %d of the 2 items it shares with B, want 2", hc.HitsIndex)
	}
}

// TestOpenFileKeepsOneJournal pins the single-journal store a one-shot
// serve runs on: admission creates (then resumes) exactly the given
// journal, nothing else is written next to it, and no spec record or
// index entry exists for a restart to find.
func TestOpenFileKeepsOneJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.journal")
	b := tinyBatch(t, "a", "b")
	s := OpenFile(path)
	h, err := s.Admit(b)
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, h, b)
	h.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 || entries[0].Name() != "run.journal" {
		t.Fatalf("directory holds %v (err %v), want only run.journal", entries, err)
	}
	if len(s.Batches()) != 0 || s.Items() != 0 {
		t.Fatalf("single-journal store kept %d records and %d index keys", len(s.Batches()), s.Items())
	}
	lines, err := journal.Replay(path, h.Header)
	if err != nil || len(lines) != b.Len() {
		t.Fatalf("journal holds %d lines (err %v), want %d", len(lines), err, b.Len())
	}

	h, err = OpenFile(path).Admit(b)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.HitsJournal != b.Len() {
		t.Fatalf("re-admission resumed %d lines, want %d", h.HitsJournal, b.Len())
	}
}
