package main

import (
	"context"
	"strings"
	"testing"
)

// TestListPrintsSuite pins the -list surface: every analyzer shows up.
func TestListPrintsSuite(t *testing.T) {
	var out, errb strings.Builder
	if code := run(context.Background(), []string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run -list = %d, stderr %q", code, errb.String())
	}
	for _, name := range []string{"nofanout", "maporder", "noclock", "ctxflow", "floatfmt", "kindfixture", "deadexport"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

// TestRepositoryIsClean is the acceptance smoke test: the full suite
// over the whole module reports nothing. Any new violation lands here
// (and in make lint, and in CI) until fixed or explicitly allowed.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	var out, errb strings.Builder
	if code := run(context.Background(), []string{"repro/..."}, &out, &errb); code != 0 {
		t.Fatalf("repolint repro/... = %d, want 0\n%s%s", code, out.String(), errb.String())
	}
}

// TestPartialLoadIsClean pins the partial-load contract on the real
// module: a pattern short of ./... cannot see every caller, so deadexport
// stays silent — obs's exports used only by other packages are not
// reported — and obs's deadexport allow is not reported stale.
func TestPartialLoadIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks a module package")
	}
	var out, errb strings.Builder
	if code := run(context.Background(), []string{"repro/internal/obs"}, &out, &errb); code != 0 {
		t.Fatalf("repolint repro/internal/obs = %d, want 0\n%s%s", code, out.String(), errb.String())
	}
}

// TestBadPatternIsUsageError pins the exit-code contract: load failures
// are 2, distinct from the diagnostic exit 1.
func TestBadPatternIsUsageError(t *testing.T) {
	var out, errb strings.Builder
	if code := run(context.Background(), []string{"./does-not-exist"}, &out, &errb); code != 2 {
		t.Fatalf("run ./does-not-exist = %d, want 2\n%s%s", code, out.String(), errb.String())
	}
}
