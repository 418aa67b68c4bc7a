// Package analysis is the repository's own static-analysis suite: the
// determinism and architecture invariants that every PR so far has
// enforced by convention and by test — all fan-out through the sweep
// engine, no map-iteration-order leaks into output, injected clocks and
// per-shard RNGs only, fixed-point float formatting in names and NDJSON,
// context threaded through every looping layer, every registered workload
// kind wired into the cross-kind equivalence suite, no exported API that
// only tests call — expressed as
// compile-time checks that travel with the code instead of the reviewer.
//
// The package is deliberately self-contained: analyzers run on the
// standard library's go/ast and go/types only (type information comes
// from the toolchain's export data via `go list -export`, see load.go),
// so the module keeps its zero-dependency property. The shape mirrors
// golang.org/x/tools/go/analysis in miniature — an Analyzer holds a name,
// a doc string, and a Run function over a typed Pass — but the driver is
// sequential and deterministic: packages are visited in import-path
// order and diagnostics are sorted, so `repolint ./...` output is
// byte-stable across runs and machines, the same bar the rest of the
// repository holds itself to.
//
// Intentional exceptions are declared in the code they except:
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line (or the line above it) suppresses that analyzer's
// diagnostic there. The reason is mandatory, directives that suppress
// nothing are themselves diagnostics, and unknown analyzer names are
// rejected — so the escape hatch cannot rot into a blanket mute.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Exactly one of Run (per-package)
// or RunProgram (whole-program, for rules that relate packages to each
// other, like the registry-fixture discipline) is typically set; the
// driver calls whichever is non-nil.
type Analyzer struct {
	// Name keys the analyzer in diagnostics and in lint:allow directives.
	Name string
	// Doc is the one-paragraph rule statement printed by `repolint -list`.
	Doc string
	// Exempt lists package-path patterns the analyzer never visits (Run)
	// or never reports into (RunProgram). A pattern is a "/"-separated
	// segment sequence; it matches a package whose import path contains
	// that sequence (so "cmd" matches repro/cmd/sweepd and
	// "internal/sweep" matches repro/internal/sweep).
	Exempt []string
	// Run, when non-nil, checks one package.
	Run func(*Pass)
	// RunProgram, when non-nil, checks the whole loaded program after all
	// per-package passes; report attributes a diagnostic to a position.
	// It needs every package, so RunSuite skips it on a partial load,
	// where its allow directives count as neither used nor stale.
	RunProgram func(*Program, func(pos token.Pos, msg string))
}

// Package is one loaded, type-checked package: the unit a per-package
// analyzer sees. Test files are parsed (syntax only, never type-checked)
// because program-level rules read them — the kindfixture analyzer finds
// the equivalence suite's fixture table in internal/work's tests — but
// per-package analyzers deliberately skip them: the invariants guard
// emitted results, and tests exercising the machinery (fake clocks,
// goroutine orchestration, deadline polling) are not result paths.
type Package struct {
	// Path is the import path ("repro/internal/dist").
	Path string
	// Name is the package name ("dist").
	Name string
	// Dir is the package directory on disk.
	Dir string
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// TestFiles are the parsed test sources (both in-package and external
	// test packages), syntax only.
	TestFiles []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the type-checker's expression and identifier facts.
	Info *types.Info
}

// Program is a loaded set of packages, sorted by import path.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
	// Complete is set when Packages hold every package of the module
	// (repolint ./...) or the whole fixture tree.
	Complete bool
}

// Pass hands one package to one analyzer with a way to report findings.
type Pass struct {
	*Package
	Fset     *token.FileSet
	Analyzer *Analyzer
	report   func(token.Pos, string)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// pathMatches reports whether the import path contains the pattern as a
// contiguous segment sequence.
func pathMatches(path, pattern string) bool {
	segs := strings.Split(path, "/")
	want := strings.Split(pattern, "/")
	if len(want) == 0 || len(want) > len(segs) {
		return false
	}
	for i := 0; i+len(want) <= len(segs); i++ {
		match := true
		for j, w := range want {
			if segs[i+j] != w {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// exempt reports whether pkg is excluded from a by its Exempt patterns.
func (a *Analyzer) exempt(pkg *Package) bool {
	for _, pat := range a.Exempt {
		if pathMatches(pkg.Path, pat) {
			return true
		}
	}
	return false
}

// SuiteOptions configures a RunSuite call.
type SuiteOptions struct {
	// Analyzers is the active set. Allow directives naming analyzers
	// outside the set are ignored unless Strict is set.
	Analyzers []*Analyzer
	// Strict additionally rejects lint:allow directives naming unknown
	// analyzers — the full-suite mode cmd/repolint runs in. Per-analyzer
	// fixture tests run non-strict so a fixture can carry directives for
	// the one analyzer under test.
	Strict bool
}

// RunSuite runs the analyzers over the program and returns the surviving
// diagnostics: findings not suppressed by a lint:allow directive, plus
// the directive hygiene findings (missing reason, suppressing nothing,
// unknown analyzer under Strict), sorted by position.
func RunSuite(prog *Program, opt SuiteOptions) []Diagnostic {
	known := make(map[string]bool, len(opt.Analyzers))
	allows := collectAllows(prog)

	var diags []Diagnostic
	for _, a := range opt.Analyzers {
		known[a.Name] = a.RunProgram == nil || prog.Complete
		if !known[a.Name] {
			continue
		}
		if a.Run != nil {
			for _, pkg := range prog.Packages {
				if a.exempt(pkg) {
					continue
				}
				pass := &Pass{Package: pkg, Fset: prog.Fset, Analyzer: a}
				name := a.Name
				pass.report = func(pos token.Pos, msg string) {
					p := prog.Fset.Position(pos)
					if allows.suppress(name, p) {
						return
					}
					diags = append(diags, Diagnostic{Pos: p, Analyzer: name, Message: msg})
				}
				a.Run(pass)
			}
		}
		if a.RunProgram != nil {
			name := a.Name
			exempt := make(map[string]bool)
			for _, pkg := range prog.Packages {
				exempt[pkg.Dir] = a.exempt(pkg)
			}
			a.RunProgram(prog, func(pos token.Pos, msg string) {
				p := prog.Fset.Position(pos)
				if exempt[filepath.Dir(p.Filename)] || allows.suppress(name, p) {
					return
				}
				diags = append(diags, Diagnostic{Pos: p, Analyzer: name, Message: msg})
			})
		}
	}
	diags = append(diags, allows.hygiene(known, opt.Strict)...)

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}
