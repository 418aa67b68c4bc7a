package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dist/journal"
	"repro/internal/scenario"
	"repro/internal/sweep"
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

// runAll executes every missing item of an admitted batch and appends
// them through the handle as one unit, as the service would.
func runAll(t *testing.T, h *Handle, b work.Batch) {
	t.Helper()
	var items []Item
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
		items = append(items, item(t, h, i, line))
	}
	if err := h.Append(items); err != nil {
		t.Fatal(err)
	}
}

// item makes item i's line ready for Append, as the service does.
func item(t *testing.T, h *Handle, i int, line []byte) Item {
	t.Helper()
	entry, _, err := journal.AppendEntry(nil, i, line)
	if err != nil {
		t.Fatal(err)
	}
	key, err := h.ItemKey(i)
	if err != nil {
		t.Fatal(err)
	}
	return Item{I: i, Entry: entry, Key: key}
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

// keyedBatch is a batch whose item i has key keys[i]: keys may repeat,
// inside a unit and across batches, and need not be plain ASCII. Its
// items are never run; tests append lines for them by hand.
type keyedBatch struct {
	kind string
	keys []string
}

func (b keyedBatch) Kind() string          { return b.kind }
func (b keyedBatch) Len() int              { return len(b.keys) }
func (b keyedBatch) Hash() (string, error) { return journal.Hash(b.keys) }
func (b keyedBatch) RunItem(context.Context, int) (json.RawMessage, error) {
	return nil, errors.New("keyedBatch items are appended by hand")
}
func (b keyedBatch) MarshalRange(r sweep.Range) (json.RawMessage, error) { return json.Marshal(r) }
func (b keyedBatch) ItemKey(i int) (string, error)                       { return b.keys[i], nil }

// TestUnitAppendsMatchLineByLine pins the write path's bytes: appending a
// unit's lines in one Append leaves each batch journal and items.idx as
// appending them one line at a time does, and both hold exactly what
// json.Marshal writes for each entry, one line each, with the first
// occurrence of an item key indexed. The lines include two that are not
// canonical, the keys repeat inside a unit and across batches, and the
// keys and one batch ID hold bytes json.Marshal escapes. The second
// batch adopts two items from the first at admission, in one append.
func TestUnitAppendsMatchLineByLine(t *testing.T) {
	a := keyedBatch{kind: "keyed", keys: []string{
		"k/a", "k/b", "k/a", "k<&>/\u00e9", "k/c", "k/b", "k/d", "k/e", "k/a", "k/f"}}
	b := keyedBatch{kind: "keyed<b>", keys: []string{"k/c", "k/x", "k/a", "k/y", "k/y", "k/z"}}
	line := func(i int) []byte {
		switch i {
		case 5:
			return []byte(`{"s":"a<b"}`)
		case 7:
			return []byte(`{"i": 7}`)
		}
		return []byte(fmt.Sprintf(`{"i":%d}`, i))
	}
	// Each batch's units, as runs of the items the service would append:
	// b's items 0 and 2 are adopted from a at admission.
	units := map[string][][]int{
		"keyed":    {{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}},
		"keyed<b>": {{1, 3}, {4, 5}},
	}

	// fill runs both batches through a fresh store, appending k items at
	// a time (0: a unit at a time), and returns the store's directory.
	fill := func(k int) string {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, batch := range []keyedBatch{a, b} {
			h, err := s.Admit(batch)
			if err != nil {
				t.Fatal(err)
			}
			for _, unit := range units[batch.kind] {
				var items []Item
				for _, i := range unit {
					items = append(items, item(t, h, i, line(i)))
				}
				for len(items) > 0 {
					n := len(items)
					if k > 0 {
						n = min(k, n)
					}
					if err := h.Append(items[:n]); err != nil {
						t.Fatal(err)
					}
					items = items[n:]
				}
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}

	// The reference: json.Marshal of every journal entry and index entry,
	// one write each, as the store wrote them before units were appended
	// whole.
	want := map[string]string{}
	marshal := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data) + "\n"
	}
	indexed := map[string]bool{}
	for _, batch := range []keyedBatch{a, b} {
		hash, _ := batch.Hash()
		id := BatchID(batch.kind, hash)
		name := id + ".journal"
		want[name] = marshal(journal.Header{V: journal.Version, Kind: batch.kind, BatchSHA256: hash, N: batch.Len()})
		if batch.kind == b.kind {
			want[name] += marshal(journal.Entry{I: 0, Line: line(4)}) + marshal(journal.Entry{I: 2, Line: line(0)})
		}
		for _, unit := range units[batch.kind] {
			for _, i := range unit {
				want[name] += marshal(journal.Entry{I: i, Line: line(i)})
				if k := batch.keys[i]; !indexed[k] {
					indexed[k] = true
					want["items.idx"] += marshal(idxEntry{Key: k, Batch: id, I: i})
				}
			}
		}
	}

	for _, k := range []int{0, 1} {
		dir := fill(k)
		for name, w := range want {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != w {
				t.Errorf("%d items per append: %s holds\n%s\nwant\n%s", k, name, got, w)
			}
		}
	}
}
