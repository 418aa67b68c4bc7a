package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "regenerate the golden files")

// TestStdoutGolden pins the Scheme I leakage/delay frontier at six
// budgets of a non-canonical 64 KB organization (8-way, 64 B blocks, 128
// output bits) byte for byte. Regenerate with `make golden`.
func TestStdoutGolden(t *testing.T) {
	const path = "testdata/size64k-scheme1-curve6.golden.txt"
	args := []string{"-size", "65536", "-assoc", "8", "-block", "64", "-out", "128", "-scheme", "1", "-curve", "6"}
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("cacheleak %v: exit %d, stderr: %s", args, code, stderr.String())
	}
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
		t.Errorf("stdout drifted from %s (run `make golden` to regenerate)\ngot:\n%s\nwant:\n%s", path, stdout.Bytes(), want)
	}
}
