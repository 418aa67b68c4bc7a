package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "regenerate the golden files")

// TestStdoutGolden pins the example grids' streams byte for byte, the
// frontier line included: the trace grid, and the analytical grid both
// with -frontier and through the -frontier-refine ladder. The batch and
// stream goldens of internal/scenario pin examples/scenarios.json.
// Regenerate with `make golden`.
func TestStdoutGolden(t *testing.T) {
	const spec, analytical = "../../examples/gridsweep/spec.json", "../../examples/gridsweep/spec-analytical.json"
	for _, g := range []struct {
		file string
		args []string
	}{
		{"gridsweep-frontier.golden.ndjson", []string{"-f", spec, "-stream", "-frontier"}},
		{"gridsweep-analytical-frontier.golden.ndjson", []string{"-f", analytical, "-stream", "-frontier"}},
		{"gridsweep-analytical-refine.golden.ndjson", []string{"-f", analytical, "-stream", "-frontier-refine"}},
	} {
		t.Run(g.file, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(t.Context(), g.args, nil, &stdout, &stderr); code != 0 {
				t.Fatalf("scenario %v: exit %d, stderr: %s", g.args, code, stderr.String())
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
