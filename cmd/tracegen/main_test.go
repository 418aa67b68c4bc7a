package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/trace"
)

var lineRE = regexp.MustCompile(`^[RW] 0x[0-9a-f]+$`)

func TestRunWritesTrace(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-suite", "tpcc", "-n", "50"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != 50 {
		t.Fatalf("want 50 accesses, got %d", len(lines))
	}
	for _, l := range lines {
		if !lineRE.MatchString(l) {
			t.Fatalf("malformed trace line %q", l)
		}
	}
}

func TestRunDeterministicSeed(t *testing.T) {
	gen := func() string {
		var stdout, stderr bytes.Buffer
		if code := run(t.Context(), []string{"-suite", "spec2000", "-n", "200", "-seed", "7"}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		return stdout.String()
	}
	if gen() != gen() {
		t.Error("same seed produced different traces")
	}
}

func TestRunToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.trace")
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-n", "10", "-o", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 10 {
		t.Errorf("file has %d lines, want 10", n)
	}
}

// TestRunEmitsTheSimulatedStreams checks tracegen writes, for every suite
// and seed, the stream scenario and figures simulate: the first accesses
// of trace.New over the trace.Suites(seed) entry of that name.
func TestRunEmitsTheSimulatedStreams(t *testing.T) {
	const n = 64
	for _, seed := range []int64{1, 7} {
		for _, p := range trace.Suites(seed) {
			t.Run(fmt.Sprintf("%s/seed%d", p.Name, seed), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-suite", p.Name, "-seed", fmt.Sprint(seed), "-n", fmt.Sprint(n)}
				if code := run(t.Context(), args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d, stderr: %s", code, stderr.String())
				}
				g, err := trace.New(p)
				if err != nil {
					t.Fatal(err)
				}
				var want strings.Builder
				for i := 0; i < n; i++ {
					a := g.Next()
					op := 'R'
					if a.Write {
						op = 'W'
					}
					fmt.Fprintf(&want, "%c 0x%x\n", op, a.Addr)
				}
				if got := stdout.String(); got != want.String() {
					t.Errorf("tracegen -suite %s -seed %d is not the simulated stream\ngot:\n%.80s\nwant:\n%.80s",
						p.Name, seed, got, want.String())
				}
			})
		}
	}
}

func TestRunUnknownSuite(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-suite", "linpack"}, &stdout, &stderr); code != 1 {
		t.Fatalf("unknown suite: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "linpack") {
		t.Errorf("diagnostic does not name the suite: %q", stderr.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-zap"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}

// TestRunCancelled checks a cancelled generation exits 130 and leaves only
// whole trace lines behind.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	code := run(ctx, []string{"-suite", "tpcc", "-n", "100000"}, &stdout, &stderr)
	if code != cli.ExitCancelled {
		t.Fatalf("cancelled run: exit %d, want %d", code, cli.ExitCancelled)
	}
	if !strings.Contains(stderr.String(), "cancelled") {
		t.Errorf("no cancellation diagnostic: %q", stderr.String())
	}
	if out := stdout.String(); out != "" && !strings.HasSuffix(out, "\n") {
		t.Errorf("partial trace line left unflushed: %q", out[len(out)-20:])
	}
}
