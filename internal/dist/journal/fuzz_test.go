package journal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to the one reader. Nothing may panic,
// and whenever Stat accepts a file, the other doors must agree with it:
// Replay against the file's own header returns Stat's count of entries,
// strictly increasing inside [0, n); Replay against any other hash is
// refused; and a resume (Open) on a copy returns the same entries, leaves
// the file ending at a complete line, and returns them again when the
// copy is reopened.
func FuzzReplay(f *testing.F) {
	valid := `{"v":1,"kind":"k","batch_sha256":"x","n":3}` + "\n" +
		`{"i":2,"line":{"a":2}}` + "\n" +
		`{"i":0,"line":{"a":0}}` + "\n"
	f.Add([]byte(valid))
	f.Add([]byte(valid + `{"i":1,"line":{"a`))
	f.Add([]byte(valid + `{"i":0,"line":{"a":9}}` + "\n"))
	f.Add([]byte(valid + `{"i":3,"line":{"a":3}}` + "\n"))
	f.Add([]byte(strings.Replace(valid, `"v":1`, `"v":2`, 1)))
	f.Add([]byte(`{"v":1,"kind":"scenario-batch","batch_sha256":"x","n":4611686018427387904}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
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
	})
}
