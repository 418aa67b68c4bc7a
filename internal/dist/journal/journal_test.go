package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testHeader(n int) Header {
	return Header{Kind: "test-batch", BatchSHA256: "abc123", N: n}
}

// write creates a journal at path with the given entries recorded.
func write(t *testing.T, path string, h Header, lines map[int]string) {
	t.Helper()
	j, err := Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic order for reproducible files.
	for i := 0; i < h.N; i++ {
		if line, ok := lines[i]; ok {
			if err := j.Record(i, []byte(line)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// render prints entries as space-separated "i=line" pairs, so a test
// compares a replay against one string.
func render(es []Entry) string {
	parts := make([]string, len(es))
	for k, e := range es {
		parts[k] = fmt.Sprintf("%d=%s", e.I, e.Line)
	}
	return strings.Join(parts, " ")
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.journal")
	h := testHeader(3)
	write(t, path, h, map[int]string{0: `{"name":"a"}`, 2: `{"name":"c"}`})

	j, done, err := Open(path, h, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if got := render(done); got != `0={"name":"a"} 2={"name":"c"}` {
		t.Fatalf("replayed %s", got)
	}

	// Appending after resume continues the journal.
	if err := j.Record(1, []byte(`{"name":"b"}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, done, err = Open(path, h, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(done); got != `0={"name":"a"} 1={"name":"b"} 2={"name":"c"}` {
		t.Fatalf("after append, replayed %s (want input order)", got)
	}
}

// TestTruncatedFinalLine checks the crash case the format is designed for:
// a torn final line is discarded, replay succeeds, and the file is
// truncated so further appends produce valid NDJSON.
func TestTruncatedFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.journal")
	h := testHeader(3)
	write(t, path, h, map[int]string{0: `{"name":"a"}`})

	// Simulate a crash mid-append: a partial entry with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"i":1,"line":{"na`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j, done, err := Open(path, h, true)
	if err != nil {
		t.Fatalf("torn final line must be tolerated: %v", err)
	}
	if got := render(done); got != `0={"name":"a"}` {
		t.Fatalf("replayed %s", got)
	}
	// The torn tail must be gone: appending and re-replaying works.
	if err := j.Record(1, []byte(`{"name":"b"}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, done, err = Open(path, h, true)
	if err != nil {
		t.Fatalf("resume after torn-tail truncation: %v", err)
	}
	if got := render(done); got != `0={"name":"a"} 1={"name":"b"}` {
		t.Fatalf("after truncation + append, replayed %s", got)
	}
}

// TestReplayReadOnly checks the read side: Replay verifies the header and
// returns the completed lines, tolerates a torn final line, and — unlike
// Open — leaves the file byte-for-byte untouched, so it is safe against
// a journal another process is still appending to.
func TestReplayReadOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.journal")
	h := testHeader(3)
	write(t, path, h, map[int]string{0: `{"name":"a"}`, 1: `{"name":"b"}`})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"i":2,"line":{"na`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	done, err := Replay(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(done); got != `0={"name":"a"} 1={"name":"b"}` {
		t.Fatalf("replayed %s", got)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("Replay modified the journal file")
	}

	// The same header checks as Open apply.
	if _, err := Replay(path, Header{Kind: "test-batch", BatchSHA256: "different", N: 3}); err == nil ||
		!strings.Contains(err.Error(), "batch hash mismatch") {
		t.Fatalf("hash mismatch must be refused, got %v", err)
	}
}

// TestCorruptMiddleLine checks that a torn line anywhere but the tail is an
// error — skipping it would silently drop a completed result.
func TestCorruptMiddleLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.journal")
	h := testHeader(3)
	write(t, path, h, map[int]string{0: `{"name":"a"}`})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, []byte("{\"i\":1,\"line\":{\"na\n")...)
	data = append(data, []byte("{\"i\":2,\"line\":{\"name\":\"c\"}}\n")...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, h, true); err == nil || !strings.Contains(err.Error(), "corrupt entry") {
		t.Fatalf("corrupt middle line must fail replay, got %v", err)
	}
}

// TestDuplicateEntries checks duplicate indices (a re-leased unit reporting
// twice, or matching duplicate scenario names journaled under one index)
// replay as the first occurrence, once.
func TestDuplicateEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.journal")
	h := testHeader(2)
	j, err := Create(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(0, []byte(`{"name":"dup","v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(0, []byte(`{"name":"dup","v":2}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, done, err := Open(path, h, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(done); got != `0={"name":"dup","v":1}` {
		t.Fatalf("duplicate replay must keep the first occurrence, once; got %s", got)
	}
}

// TestHashMismatchRefused checks resuming against a different batch fails
// with a clear diagnostic instead of splicing unrelated results.
func TestHashMismatchRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.journal")
	write(t, path, testHeader(2), map[int]string{0: `{"name":"a"}`})

	other := testHeader(2)
	other.BatchSHA256 = "def456"
	_, _, err := Open(path, other, true)
	if err == nil || !strings.Contains(err.Error(), "batch hash mismatch") {
		t.Fatalf("hash mismatch must refuse resume, got %v", err)
	}
	if !strings.Contains(err.Error(), "refusing to resume") {
		t.Fatalf("diagnostic should explain the refusal, got %v", err)
	}
}

func TestHeaderMismatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.journal")
	write(t, path, testHeader(2), nil)

	wrongKind := testHeader(2)
	wrongKind.Kind = "experiments"
	if _, _, err := Open(path, wrongKind, true); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("kind mismatch: %v", err)
	}
	wrongN := testHeader(5)
	if _, _, err := Open(path, wrongN, true); err == nil || !strings.Contains(err.Error(), "items") {
		t.Fatalf("count mismatch: %v", err)
	}
}

func TestEntryIndexOutOfRange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.journal")
	h := testHeader(2)
	write(t, path, h, nil)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"i":7,"line":{"name":"x"}}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := Open(path, h, true); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range index must fail replay, got %v", err)
	}
}

// TestOpenFrontDoor checks Open's resume semantics: fresh file without
// resume, fresh file with resume when none exists, replay when one does.
func TestOpenFrontDoor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.journal")
	h := testHeader(2)

	j, done, err := Open(path, h, true) // resume with no journal yet: fresh
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Fatalf("fresh journal replayed %v", done)
	}
	if err := j.Record(0, []byte(`{"name":"a"}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j, done, err = Open(path, h, true) // resume with a journal: replay
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(done) != 1 {
		t.Fatalf("resume replayed %v", done)
	}

	j, done, err = Open(path, h, false) // no resume: truncate and restart
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(done) != 0 {
		t.Fatalf("fresh open replayed %v", done)
	}
}

// TestStat checks the no-input summary scan: counts are distinct (dups
// collapse), the header fields come from the file itself, a torn tail is
// reported rather than fatal, and completion flips exactly at done == n.
func TestStat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.journal")
	h := testHeader(3)
	write(t, path, h, map[int]string{0: `{"name":"a"}`, 2: `{"name":"c"}`})

	st, err := Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{Kind: "test-batch", BatchSHA256: "abc123", N: 3, Done: 2}
	if st != want {
		t.Fatalf("Stat = %+v, want %+v", st, want)
	}

	// A duplicate entry must not inflate the count; completing the last
	// index flips Complete.
	j, _, err := Open(path, h, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(0, []byte(`{"name":"a","again":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(1, []byte(`{"name":"b"}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	st, err = Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 3 || !st.Complete {
		t.Fatalf("after dup + final entry: %+v", st)
	}

	// A torn final line is reported, not counted, not fatal.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"i":1,"line":{"na`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	st, err = Stat(path)
	if err != nil {
		t.Fatalf("torn final line must be tolerated: %v", err)
	}
	if st.Done != 3 || !st.TornTail {
		t.Fatalf("torn tail: %+v", st)
	}
}

// TestStatErrors checks Stat shares Replay's corruption rules even though
// it verifies no expected header: bad version, corrupt middle entries,
// out-of-range indices and item counts no batch can have are loud errors.
func TestStatErrors(t *testing.T) {
	dir := t.TempDir()

	badVersion := filepath.Join(dir, "version.journal")
	if err := os.WriteFile(badVersion, []byte(`{"v":99,"kind":"k","batch_sha256":"x","n":2}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Stat(badVersion); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch: %v", err)
	}

	corrupt := filepath.Join(dir, "corrupt.journal")
	write(t, corrupt, testHeader(3), map[int]string{0: `{"name":"a"}`})
	data, err := os.ReadFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, []byte("{\"i\":1,\"line\":{\"na\n{\"i\":2,\"line\":{\"name\":\"c\"}}\n")...)
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Stat(corrupt); err == nil || !strings.Contains(err.Error(), "corrupt entry") {
		t.Fatalf("corrupt middle line: %v", err)
	}

	outOfRange := filepath.Join(dir, "range.journal")
	write(t, outOfRange, testHeader(2), nil)
	f, err := os.OpenFile(outOfRange, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"i":7,"line":{"name":"x"}}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Stat(outOfRange); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range index: %v", err)
	}

	// The header's item count sizes the seen-index bitset, so a count
	// outside (0, maxItems] is refused before anything is allocated: 2^62
	// would overflow makeslice, and 2^36 would allocate 8 GiB.
	for _, n := range []string{"0", "-1", fmt.Sprint(maxItems + 1), "68719476736", "4611686018427387904"} {
		hostile := filepath.Join(dir, "count"+n+".journal")
		head := `{"v":1,"kind":"scenario-batch","batch_sha256":"x","n":` + n + "}\n"
		if err := os.WriteFile(hostile, []byte(head), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Stat(hostile); err == nil || !strings.Contains(err.Error(), "item count") {
			t.Errorf("n=%s: %v", n, err)
		}
	}
	largest := filepath.Join(dir, "largest.journal")
	j, err := Create(largest, testHeader(maxItems))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if st, err := Stat(largest); err != nil || st.N != maxItems {
		t.Fatalf("a header of the largest batch must be accepted: %+v, %v", st, err)
	}
}

func TestHashStability(t *testing.T) {
	type batch struct {
		Names []string `json:"names"`
	}
	h1, err := Hash(batch{Names: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Hash(batch{Names: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	h3, err := Hash(batch{Names: []string{"a", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("hash must be deterministic")
	}
	if h1 == h3 {
		t.Fatal("different batches must hash differently")
	}
	if len(h1) != 64 {
		t.Fatalf("want hex sha256, got %q", h1)
	}
}

// TestJournalIsNDJSON pins the on-disk format: every line of a journal is
// one standalone JSON document.
func TestJournalIsNDJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.journal")
	h := testHeader(2)
	write(t, path, h, map[int]string{0: `{"name":"a"}`, 1: `{"name":"b"}`})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 entries, got %d lines", len(lines))
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Errorf("line %d is not JSON: %q", i, line)
		}
	}
}
