package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "regenerate the golden files")

// TestStdoutGolden pins the paper's figures and tables byte for byte: the
// NDJSON stream of every registry and extension artifact at a small
// scale, at both miss-rate fidelities. Regenerate with `make golden`.
func TestStdoutGolden(t *testing.T) {
	for _, g := range []struct {
		file string
		args []string
	}{
		{"ext-trace.golden.ndjson", []string{"-quick", "-accesses", "20000", "-ext", "-stream"}},
		{"ext-analytical.golden.ndjson", []string{"-quick", "-accesses", "20000", "-fidelity", "analytical", "-ext", "-stream"}},
	} {
		t.Run(g.file, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(t.Context(), g.args, &stdout, &stderr); code != 0 {
				t.Fatalf("figures %v: exit %d, stderr: %s", g.args, code, stderr.String())
			}
			checkGolden(t, filepath.Join("testdata", g.file), stdout.Bytes())
		})
	}
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `make golden` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout drifted from %s (run `make golden` to regenerate)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
