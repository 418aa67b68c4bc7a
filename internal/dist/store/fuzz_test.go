package store

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenIndex feeds arbitrary bytes to Open as items.idx, beside one
// valid batch record (k-h) so entries naming it are live. Open may refuse
// the index but never panic; when it accepts it, the index is left empty
// or ending at a complete line, and reopening accepts it again with the
// same item count.
func FuzzOpenIndex(f *testing.F) {
	const live = `{"key":"scenario/a","b":"k-h","i":0}` + "\n"
	f.Add([]byte(live + `{"key":"scenario/torn`))
	f.Add([]byte(live + "not json\n" + `{"key":"scenario/b","b":"k-h","i":1}` + "\n"))
	f.Add([]byte("null\n"))
	f.Add([]byte("[]\n"))
	f.Add([]byte(`{"key":"scenario/a","b":"k-gone","i":0}` + "\n"))
	f.Add([]byte(`{"key":"scenario/a","b":"k-h","i":-1}` + "\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		rec := `{"seq":1,"kind":"k","batch_sha256":"h","n":2,"payload":{}}` + "\n"
		if err := os.WriteFile(filepath.Join(dir, "k-h.batch.json"), []byte(rec), 0o644); err != nil {
			t.Fatal(err)
		}
		idx := filepath.Join(dir, "items.idx")
		if err := os.WriteFile(idx, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			return
		}
		items := s.Items()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(idx)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) > 0 && after[len(after)-1] != '\n' {
			t.Fatalf("open left items.idx ending mid-line: %q", after)
		}
		s, err = Open(dir)
		if err != nil {
			t.Fatalf("reopen refused the index the first open accepted: %v", err)
		}
		defer s.Close()
		if s.Items() != items {
			t.Fatalf("reopen holds %d items, first open %d", s.Items(), items)
		}
	})
}
