package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunOptimize(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(t.Context(), []string{"-size", "16384", "-scheme", "2", "-frac", "0.5"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"feasible access times", "Scheme II optimum", "leakage:", "verified:", "cell-array:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCurve(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(t.Context(), []string{"-size", "16384", "-scheme", "3", "-curve", "4"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "leakage/delay frontier") {
		t.Errorf("frontier header missing:\n%s", stdout.String())
	}
}

func TestRunInfeasibleBudget(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-size", "16384", "-delay-ps", "1"}, &stdout, &stderr); code != 1 {
		t.Fatalf("1ps budget: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "no assignment meets") {
		t.Errorf("missing diagnostic: %q", stderr.String())
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-size", "-5"}, &stdout, &stderr); code != 1 {
		t.Errorf("negative size: exit %d, want 1", code)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(t.Context(), []string{"-scheme", "9"}, &stdout, &stderr); code != 1 {
		t.Errorf("bad scheme: exit %d, want 1", code)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(t.Context(), []string{"-wat"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}

// TestRunRejectsNonFiniteBudget pins the budget flags to finite values,
// refused before the cache is designed: a NaN or infinite budget names no
// point of the feasible range, and -delay-ps must not pass through
// unnoticed because NaN > 0 is false.
func TestRunRejectsNonFiniteBudget(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-frac", "NaN"},
		{"-delay-ps", "NaN"},
		{"-frac", "+Inf"},
		{"-delay-ps", "-Inf"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(t.Context(), []string{"-scheme", "1", tc.flag, tc.value}, &stdout, &stderr); code != 1 {
			t.Errorf("%s %s: exit %d, want 1", tc.flag, tc.value, code)
		}
		if want := "cacheleak: " + tc.flag + " must be finite"; !strings.Contains(stderr.String(), want) {
			t.Errorf("%s %s: stderr %q, want %q", tc.flag, tc.value, stderr.String(), want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s %s: designed the cache before refusing: %q", tc.flag, tc.value, stdout.String())
		}
	}
}
