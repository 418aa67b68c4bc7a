package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to the one reader. Nothing may panic,
// and the reader must read every file as referenceScan does, with no
// expected header and with the file's own. Whenever Stat accepts a file,
// the other doors must agree with it: Replay against the file's own
// header returns Stat's count of entries, strictly increasing inside
// [0, n); Replay against any other hash is refused; and a resume (Open)
// on a copy returns the same entries, leaves the file ending at a
// complete line, and returns them again when the copy is reopened.
func FuzzReplay(f *testing.F) {
	valid := fuzzHead +
		`{"i":2,"line":{"a":2}}` + "\n" +
		`{"i":0,"line":{"a":0}}` + "\n"
	f.Add([]byte(valid))
	f.Add([]byte(valid + `{"i":1,"line":{"a`))
	f.Add([]byte(valid + `{"i":0,"line":{"a":9}}` + "\n"))
	f.Add([]byte(valid + `{"i":3,"line":{"a":3}}` + "\n"))
	f.Add([]byte(strings.Replace(valid, `"v":1`, `"v":2`, 1)))
	f.Add([]byte(`{"v":1,"kind":"scenario-batch","batch_sha256":"x","n":4611686018427387904}` + "\n"))
	// Entries off Record's form, which take encoding/json's branch, and
	// \u escapes on both branches. TestNestingLimit covers the nesting
	// limit itself.
	for _, e := range []string{
		`{"i": 1, "line": {"a": 1}}`,
		`{"line":{"a":1},"i":1}`,
		`{"i":01,"line":1}`,
		`{"i":1000000000,"line":1}`,
		`{"i":-1,"line":1}`,
		`{"i":1,"line":"\u00e9\n"}`,
		`{"\u0069":1,"line":2}`,
		`{"i":1,"line":"\u00g9"}`,
		`{"i": 1,"line":` + deep(64) + `}`,
	} {
		f.Add([]byte(fuzzHead + e + "\n"))
	}
	f.Fuzz(checkReplay)
}

// fuzzHead is the header line of FuzzReplay's seeds.
const fuzzHead = `{"v":1,"kind":"k","batch_sha256":"x","n":3}` + "\n"

// deep is n nested empty arrays.
func deep(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }

// TestNestingLimit holds FuzzReplay's and FuzzCanonical's properties on
// either side of encoding/json's nesting limit, alone and inside an
// entry: inputs too large to seed the fuzzers with, since minimizing
// their mutants would take the fuzzers' whole run.
func TestNestingLimit(t *testing.T) {
	for _, d := range []int{maxDepth - 1, maxDepth, maxDepth + 1} {
		checkReplay(t, []byte(fuzzHead+`{"i":1,"line":`+deep(d)+"}\n"))
		checkCanonical(t, 7, []byte(deep(d)))
	}
}

// checkReplay is FuzzReplay's property on one file's bytes.
func checkReplay(t *testing.T, data []byte) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fuzz.journal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sameScan(t, path, nil)
	var own Header
	if line, _, _ := bytes.Cut(data, []byte("\n")); json.Unmarshal(line, &own) == nil && own.N > 0 && own.N <= maxItems {
		sameScan(t, path, &own)
	}
	st, err := Stat(path)
	if err != nil {
		return
	}
	h := Header{Kind: st.Kind, BatchSHA256: st.BatchSHA256, N: st.N}
	done, err := Replay(path, h)
	if err != nil {
		t.Fatalf("Stat accepted the file, Replay refused it: %v", err)
	}
	if len(done) != st.Done {
		t.Fatalf("Replay returned %d entries, Stat counted %d", len(done), st.Done)
	}
	for k, e := range done {
		if e.I < 0 || e.I >= st.N || (k > 0 && e.I <= done[k-1].I) {
			t.Fatalf("entry %d has index %d: not strictly increasing inside [0, %d)", k, e.I, st.N)
		}
	}
	other := h
	other.BatchSHA256 += "0"
	if _, err := Replay(path, other); err == nil {
		t.Fatal("Replay accepted a batch hash the header does not pin")
	}

	cp := filepath.Join(dir, "copy.journal")
	if err := os.WriteFile(cp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		j, resumed, err := Open(cp, h, true)
		if err != nil {
			t.Fatalf("open %d refused what Replay read: %v", round, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if got, want := render(resumed), render(done); got != want {
			t.Fatalf("open %d returned %s, Replay %s", round, got, want)
		}
		after, err := os.ReadFile(cp)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) == 0 || after[len(after)-1] != '\n' {
			t.Fatalf("open %d left the journal ending mid-line: %q", round, after)
		}
	}
}

// sameScan requires scan to read the file at path as referenceScan does:
// the same error text, or the same header, entries, count, end offset and
// torn flag.
func sameScan(t *testing.T, path string, want *Header) {
	t.Helper()
	read := func(scan func(*os.File, *Header) (scanned, error)) (scanned, error) {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		return scan(f, want)
	}
	got, err := read(scan)
	ref, refErr := read(referenceScan)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("want %+v: scan says %v, the reference %v", want, err, refErr)
	}
	sameEntry := func(a, b Entry) bool { return a.I == b.I && bytes.Equal(a.Line, b.Line) }
	if got.h != ref.h || got.done != ref.done || got.end != ref.end || got.torn != ref.torn ||
		!slices.EqualFunc(got.entries, ref.entries, sameEntry) {
		t.Fatalf("want %+v: scan read\n%+v %s\nthe reference\n%+v %s", want,
			got.h, render(got.entries), ref.h, render(ref.entries))
	}
}

// FuzzCanonical holds the one-pass validator to encoding/json, with no
// files: compactValid accepts exactly the valid JSON json.Compact leaves
// unchanged, and Canonical exactly the lines json.Marshal passes through
// unchanged inside an entry that is valid JSON. Record's entry for a
// canonical line is its own text around the line, which parseEntry reads
// back in place.
func FuzzCanonical(f *testing.F) {
	for _, x := range []string{
		`{"a":[1,-2.5e+3,0.5E-7,true,false,null,"\u00e9\n\/"],"b":{}}`,
		`{"a": 1}`, ` 1`, `"a&b"`, `"<>"`, "\"\u2028\u2029\"", "\"\xe2\x80\"", "\"\xff\"",
		`01`, `-0`, `1.`, `.5`, `1e`, `-`, `+1`, "\"\x1f\"", `"\q"`, `"\u12"`, `[1,]`, `{"a"}`, `tru`, `nul`,
		deep(64),
	} {
		f.Add(uint32(7), []byte(x))
	}
	f.Fuzz(checkCanonical)
}

// checkCanonical is FuzzCanonical's property on one line and entry index.
func checkCanonical(t *testing.T, i uint32, x []byte) {
	var buf bytes.Buffer
	want := json.Valid(x) && json.Compact(&buf, x) == nil && bytes.Equal(buf.Bytes(), x)
	if got := compactValid(x, 0); got != want {
		t.Fatalf("compactValid(%q) = %t, encoding/json says %t", x, got, want)
	}
	m, err := json.Marshal(json.RawMessage(x))
	e, _ := json.Marshal(Entry{I: int(i), Line: x})
	want = err == nil && bytes.Equal(m, x) && json.Valid(e)
	if got := Canonical(x); got != want {
		t.Fatalf("Canonical(%q) = %t, json.Marshal gives %q, %v, entry valid %t", x, got, m, err, json.Valid(e))
	}
	if !want {
		return
	}
	if want := fmt.Sprintf(`{"i":%d,"line":%s}`, i, x); string(e) != want {
		t.Fatalf("entry %d of %q marshals to %q, want %q", i, x, e, want)
	}
	got, ok := parseEntry(append(e, '\n'))
	if short := i < 1e9; ok != short || ok && (got.I != int(i) || !bytes.Equal(got.Line, x)) {
		t.Fatalf("parseEntry(%q) = %d %q %t, want %t", e, got.I, got.Line, ok, short)
	}
}
