// Package analysistest runs one analyzer over a GOPATH-style fixture
// tree and checks its diagnostics against expectations embedded in the
// fixtures, mirroring golang.org/x/tools/go/analysis/analysistest in
// miniature. A fixture line documents what the analyzer must say about
// it with a trailing comment:
//
//	for k := range m { out = append(out, k) } // want `appends to out`
//
// Each quoted string after "want" is a regular expression that must
// match one diagnostic reported on that line; diagnostics with no
// matching want, and wants with no matching diagnostic, both fail the
// test. Fixtures therefore prove both directions: the analyzer flags
// the seeded violations and stays quiet on the adjacent allowed
// patterns.
package analysistest

import (
	"context"
	"fmt"
	"go/ast"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// want is one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads testdata/<dir>/src as a fixture tree, runs the analyzer
// (with lint:allow handling, so fixtures can prove the escape hatch),
// and diffs diagnostics against the want comments.
//
//lint:allow deadexport internal/analysis's fixture tests run every analyzer through it
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	root := filepath.Join("testdata", dir, "src")
	//lint:allow ctxflow fixture loads are short and uncancellable; t.Context needs go1.24 and this package builds at the 1.22 floor
	prog, err := analysis.LoadTree(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Packages) == 0 {
		t.Fatalf("fixture tree %s is empty", root)
	}
	diags := analysis.RunSuite(prog, analysis.SuiteOptions{Analyzers: []*analysis.Analyzer{a}})

	wants := collectWants(t, prog)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: [%s] %s", d.Pos, d.Analyzer, d.Message)
		}
	}
	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
			}
		}
	}
}

// collectWants parses every `// want "re" ...` comment in the fixture
// tree, including test files (program-level analyzers report against
// facts found there).
func collectWants(t *testing.T, prog *analysis.Program) map[string][]*want {
	t.Helper()
	wants := make(map[string][]*want)
	add := func(f *ast.File) {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				rest := strings.TrimSpace(text[idx+len("want "):])
				for rest != "" {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s: malformed want comment %q", pos, c.Text)
					}
					raw, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: malformed want string %q", pos, q)
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: want pattern %q: %v", pos, raw, err)
					}
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					wants[key] = append(wants[key], &want{file: pos.Filename, line: pos.Line, re: re, raw: raw})
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			add(f)
		}
		for _, f := range pkg.TestFiles {
			add(f)
		}
	}
	return wants
}
