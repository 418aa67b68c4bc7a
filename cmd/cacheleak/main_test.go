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

// TestRunInfeasibleBudget pins the diagnostic for a budget no assignment
// meets, Scheme I's included at a budget so small that every delay's bin
// count overflows an int.
func TestRunInfeasibleBudget(t *testing.T) {
	for _, args := range [][]string{
		{"-size", "16384", "-delay-ps", "1"},
		{"-size", "16384", "-scheme", "1", "-delay-ps", "1e-290"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(t.Context(), args, &stdout, &stderr); code != 1 {
			t.Fatalf("%v: exit %d, want 1", args, code)
		}
		if !strings.Contains(stderr.String(), "no assignment meets") {
			t.Errorf("%v: missing diagnostic: %q", args, stderr.String())
		}
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
// and -delay-ps to values of at least 0, its "use -frac" default, refused
// before the cache is designed: a NaN, infinite or negative budget names
// no point of the feasible range, and -delay-ps must not pass through
// unnoticed because NaN > 0 and -5 > 0 are false.
func TestRunRejectsNonFiniteBudget(t *testing.T) {
	for _, tc := range []struct{ flag, value, want string }{
		{"-frac", "NaN", "must be finite"},
		{"-delay-ps", "NaN", "must be finite"},
		{"-frac", "+Inf", "must be finite"},
		{"-delay-ps", "-Inf", "must be finite"},
		{"-delay-ps", "-5", "must not be negative, got -5"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(t.Context(), []string{"-scheme", "1", tc.flag, tc.value}, &stdout, &stderr); code != 1 {
			t.Errorf("%s %s: exit %d, want 1", tc.flag, tc.value, code)
		}
		if want := "cacheleak: " + tc.flag + " " + tc.want; !strings.Contains(stderr.String(), want) {
			t.Errorf("%s %s: stderr %q, want %q", tc.flag, tc.value, stderr.String(), want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s %s: designed the cache before refusing: %q", tc.flag, tc.value, stdout.String())
		}
	}
}
