package repro

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "regenerate the golden files")

// TestExamplesGolden builds every program under examples/ and runs each
// from the repository root, as their doc comments run them, pinning its
// stdout byte for byte (testdata/examples/<name>.golden) and its exit
// status. distsweep's checkpoint is removed before and after each run, so
// every run starts fresh and leaves nothing behind. Regenerate with
// `make golden`.
func TestExamplesGolden(t *testing.T) {
	bin := t.TempDir()
	if out, err := exec.CommandContext(t.Context(), "go", "build", "-o", bin, "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	mains, err := filepath.Glob("examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) != 8 {
		t.Fatalf("found %d examples, want 8: %v", len(mains), mains)
	}
	for _, m := range mains {
		name := filepath.Base(filepath.Dir(m))
		t.Run(name, func(t *testing.T) {
			removeJournal := func() {
				if err := os.Remove("distsweep.journal"); err != nil && !os.IsNotExist(err) {
					t.Fatal(err)
				}
			}
			removeJournal()
			defer removeJournal()
			var stdout, stderr bytes.Buffer
			cmd := exec.CommandContext(t.Context(), filepath.Join(bin, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v\nstderr:\n%s", name, err, stderr.String())
			}
			path := filepath.Join("testdata", "examples", name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `make golden` to create it)", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("%s's stdout drifted from %s (run `make golden` to regenerate)\ngot:\n%s\nwant:\n%s",
					name, path, stdout.Bytes(), want)
			}
		})
	}
}
