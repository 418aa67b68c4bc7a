package work

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dist/journal"
	"repro/internal/sweep"
)

// toyBatch is a fast synthetic kind: item i renders to {"i":lo+i}. The
// offset makes MarshalRange/Unmarshal round trips observable — a decoded
// sub-batch must keep producing the original indices.
type toyBatch struct {
	Lo     int `json:"lo"`
	Hi     int `json:"hi"`
	failAt int // absolute index that fails deterministically; -1 = none
}

func (t toyBatch) Kind() string { return "toy" }
func (t toyBatch) Len() int     { return t.Hi - t.Lo }
func (t toyBatch) Hash() (string, error) {
	return journal.Hash(toyBatch{Lo: t.Lo, Hi: t.Hi})
}
func (t toyBatch) RunItem(_ context.Context, i int) (json.RawMessage, error) {
	if t.Lo+i == t.failAt {
		return nil, fmt.Errorf("toy item %d exploded", t.Lo+i)
	}
	return json.RawMessage(fmt.Sprintf(`{"i":%d}`, t.Lo+i)), nil
}
func (t toyBatch) MarshalRange(r sweep.Range) (json.RawMessage, error) {
	return json.Marshal(toyBatch{Lo: t.Lo + r.Lo, Hi: t.Lo + r.Hi})
}

func init() {
	Register("toy", func(payload json.RawMessage) (Batch, error) {
		var t toyBatch
		if err := json.Unmarshal(payload, &t); err != nil {
			return nil, err
		}
		t.failAt = -1
		return t, nil
	})
}

func toy(n int) toyBatch { return toyBatch{Lo: 0, Hi: n, failAt: -1} }

// toyWant renders the sequential output for indices [0, n).
func toyWant(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"i":%d}`+"\n", i)
	}
	return b.String()
}

// TestRunOrderedAtAnyWorkerCount pins the driver's core contract: the
// streamed bytes are input-ordered and identical at any worker count.
func TestRunOrderedAtAnyWorkerCount(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		var buf bytes.Buffer
		if err := Run(t.Context(), toy(17), Options{Workers: workers}, &buf); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got, want := buf.String(), toyWant(17); got != want {
			t.Errorf("workers=%d:\n got: %q\nwant: %q", workers, got, want)
		}
	}
}

// TestCollectMatchesRun checks the buffered driver returns exactly the
// streamed lines, in order.
func TestCollectMatchesRun(t *testing.T) {
	lines, err := Collect(t.Context(), toy(9), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, l := range lines {
		buf.Write(l)
		buf.WriteByte('\n')
	}
	if got, want := buf.String(), toyWant(9); got != want {
		t.Errorf("collect:\n got: %q\nwant: %q", got, want)
	}
}

// TestRunCheckpointResume drives the journal path: a full checkpointed
// run journals everything; a resume over the replayed lines emits nothing;
// a resume over a partial replay emits exactly the remainder.
func TestRunCheckpointResume(t *testing.T) {
	b := toy(6)
	path := filepath.Join(t.TempDir(), "toy.journal")
	jr, done, err := OpenJournal(path, b, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Fatalf("fresh journal replayed %d lines", len(done))
	}
	var first bytes.Buffer
	if err := Run(t.Context(), b, Options{Workers: 2, Journal: jr, Done: done}, &first); err != nil {
		t.Fatal(err)
	}
	jr.Close()
	if first.String() != toyWant(6) {
		t.Fatalf("checkpointed run emitted %q", first.String())
	}

	// Full journal: resume emits nothing.
	jr, done, err = OpenJournal(path, b, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 6 {
		t.Fatalf("replayed %d lines, want 6", len(done))
	}
	var again bytes.Buffer
	if err := Run(t.Context(), b, Options{Journal: jr, Done: done}, &again); err != nil {
		t.Fatal(err)
	}
	jr.Close()
	if again.Len() != 0 {
		t.Fatalf("fully journaled batch re-emitted %q", again.String())
	}

	// Partial replay (indices 0 and 3): the run emits exactly the others,
	// and Observe sees the replayed entries first, then the fresh lines.
	partial := []journal.Entry{done[0], done[3]}
	var rest, observed bytes.Buffer
	observe := func(i int, line json.RawMessage) { fmt.Fprintf(&observed, "%d=%s ", i, line) }
	if err := Run(t.Context(), b, Options{Workers: 2, Done: partial, Observe: observe}, &rest); err != nil {
		t.Fatal(err)
	}
	want := `{"i":1}` + "\n" + `{"i":2}` + "\n" + `{"i":4}` + "\n" + `{"i":5}` + "\n"
	if rest.String() != want {
		t.Errorf("resumed run:\n got: %q\nwant: %q", rest.String(), want)
	}
	wantObserved := `0={"i":0} 3={"i":3} 1={"i":1} 2={"i":2} 4={"i":4} 5={"i":5} `
	if observed.String() != wantObserved {
		t.Errorf("observed:\n got: %q\nwant: %q", observed.String(), wantObserved)
	}
}

// TestReplayJournalReadsWithoutTruncating checks the journal-cat read
// side: a torn final line is tolerated but the file is left untouched.
func TestReplayJournalReadsWithoutTruncating(t *testing.T) {
	b := toy(3)
	path := filepath.Join(t.TempDir(), "toy.journal")
	jr, _, err := OpenJournal(path, b, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Record(0, []byte(`{"i":0}`)); err != nil {
		t.Fatal(err)
	}
	// A torn append, as a kill mid-write leaves.
	if _, err := fmt.Fprintf(jrFile(t, path), `{"i":1,"line":{"i`); err != nil {
		t.Fatal(err)
	}
	jr.Close()

	h, err := Header(b)
	if err != nil {
		t.Fatal(err)
	}
	done, err := journal.Replay(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 || done[0].I != 0 || string(done[0].Line) != `{"i":0}` {
		t.Fatalf("replayed %v", done)
	}
	// A second replay still sees the same file (nothing was truncated).
	if _, err := journal.Replay(path, h); err != nil {
		t.Fatal(err)
	}
}

// jrFile opens the journal for a raw append (simulated crash artifact).
func jrFile(t *testing.T, path string) io.Writer {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestRunItemFailureAborts checks a deterministic item failure surfaces
// through the driver with the engine's canonical wrapping.
func TestRunItemFailureAborts(t *testing.T) {
	b := toy(5)
	b.failAt = 3
	var buf bytes.Buffer
	err := Run(t.Context(), b, Options{Workers: 1}, &buf)
	if err == nil || !strings.Contains(err.Error(), "toy item 3 exploded") {
		t.Fatalf("err = %v, want the toy explosion", err)
	}
	if got, want := buf.String(), toyWant(3); got != want {
		t.Errorf("pre-failure prefix:\n got: %q\nwant: %q", got, want)
	}
}

// failWriter fails every write after the first.
type failWriter struct{ writes int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > 1 {
		return 0, fmt.Errorf("sink full")
	}
	return len(p), nil
}

// TestRunSinkErrorCancels checks a write failure aborts the run with the
// failing index in the error instead of computing unread output.
func TestRunSinkErrorCancels(t *testing.T) {
	err := Run(t.Context(), toy(8), Options{Workers: 2}, &failWriter{})
	if err == nil || !strings.Contains(err.Error(), "work: emitting item 1") {
		t.Fatalf("err = %v, want the sink failure on item 1", err)
	}
}

// TestRunEmptyBatch pins the no-items diagnostic.
func TestRunEmptyBatch(t *testing.T) {
	if err := Run(t.Context(), toy(0), Options{}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "no items") {
		t.Fatalf("empty batch: %v", err)
	}
	if _, err := Collect(t.Context(), toy(0), Options{}); err == nil ||
		!strings.Contains(err.Error(), "no items") {
		t.Fatalf("empty collect: %v", err)
	}
}

// TestRegistryRoundTrip pins the wire cycle: MarshalRange → Unmarshal
// yields a batch producing the original absolute indices.
func TestRegistryRoundTrip(t *testing.T) {
	payload, err := toy(10).MarshalRange(sweep.Range{Lo: 4, Hi: 7})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Unmarshal("toy", payload)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 3 {
		t.Fatalf("sub-batch has %d items, want 3", sub.Len())
	}
	lines, err := Collect(t.Context(), sub, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`{"i":4}`, `{"i":5}`, `{"i":6}`}
	for i, l := range lines {
		if string(l) != want[i] {
			t.Errorf("line %d = %s, want %s", i, l, want[i])
		}
	}
}

// TestUnmarshalUnknownKind pins the unknown-kind diagnostic (it names the
// registered kinds, so a version-skewed fleet diagnoses itself).
func TestUnmarshalUnknownKind(t *testing.T) {
	_, err := Unmarshal("no-such-kind", []byte(`{}`))
	if err == nil || !strings.Contains(err.Error(), `"no-such-kind"`) ||
		!strings.Contains(err.Error(), "toy") {
		t.Fatalf("err = %v, want unknown-kind naming the registry", err)
	}
}

// TestRegisterDuplicatePanics pins double registration as a programming
// error.
func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("toy", func(json.RawMessage) (Batch, error) { return nil, nil })
}

// TestHeaderPinsBatch checks the journal header carries kind, hash, and
// count.
func TestHeaderPinsBatch(t *testing.T) {
	h, err := Header(toy(4))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := toy(4).Hash()
	if err != nil {
		t.Fatal(err)
	}
	want := journal.Header{Kind: "toy", BatchSHA256: hash, N: 4}
	if h != want {
		t.Errorf("header = %+v, want %+v", h, want)
	}
}

// TestKindsSorted checks the registry listing is stable.
func TestKindsSorted(t *testing.T) {
	kinds := Kinds()
	for i := 1; i < len(kinds); i++ {
		if kinds[i-1] >= kinds[i] {
			t.Fatalf("kinds not sorted: %v", kinds)
		}
	}
	found := false
	for _, k := range kinds {
		if k == "toy" {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered kind missing from %v", kinds)
	}
}

// lineBatch is a one-item batch whose item renders a fixed line.
type lineBatch struct{ line string }

func (b lineBatch) Kind() string          { return "line" }
func (b lineBatch) Len() int              { return 1 }
func (b lineBatch) Hash() (string, error) { return journal.Hash(b.line) }
func (b lineBatch) RunItem(context.Context, int) (json.RawMessage, error) {
	return json.RawMessage(b.line), nil
}
func (b lineBatch) MarshalRange(sweep.Range) (json.RawMessage, error) {
	return json.Marshal(b.line)
}

// TestRunRefusesLinesTheJournalCannotReplay pins the checkpoint path to
// lines a resume reproduces: a line with spaces, which the journal would
// hold compacted, and one nested 10000 deep, whose entry no Replay reads,
// each fail the run naming the item, with nothing of it journaled or
// written.
func TestRunRefusesLinesTheJournalCannotReplay(t *testing.T) {
	for name, line := range map[string]string{
		"spaced": `{"a": 1}`,
		"deep":   strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
	} {
		t.Run(name, func(t *testing.T) {
			b := lineBatch{line}
			path := filepath.Join(t.TempDir(), "line.journal")
			jr, _, err := OpenJournal(path, b, false)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			err = Run(t.Context(), b, Options{Journal: jr}, &out)
			jr.Close()
			if err == nil || !strings.Contains(err.Error(), "work: emitting item 0: line is not canonical JSON") {
				t.Fatalf("err = %v, want item 0 refused as not canonical", err)
			}
			if out.Len() != 0 {
				t.Errorf("the refused line reached the sink: %q", out.String())
			}
			h, err := Header(b)
			if err != nil {
				t.Fatal(err)
			}
			if done, err := journal.Replay(path, h); err != nil || len(done) != 0 {
				t.Errorf("journal replays %d entries, err %v; want an empty journal", len(done), err)
			}
		})
	}
}
