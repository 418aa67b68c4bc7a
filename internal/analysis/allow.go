package analysis

import (
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// The lint:allow escape hatch. A directive comment
//
//	//lint:allow <analyzer> <reason>
//
// suppresses <analyzer>'s diagnostics on the directive's own line (the
// trailing-comment form) and on the line immediately below it (the
// standalone-comment form). The reason is part of the contract: an allow
// without one is a diagnostic, as is an allow that suppressed nothing —
// stale exceptions surface instead of accumulating.

const allowPrefix = "//lint:allow"

// allowDirective is one parsed directive.
type allowDirective struct {
	pos      token.Position // the directive comment's position
	analyzer string         // may be "" when malformed
	reason   string
	used     bool
}

// allowSet indexes directives by (file, analyzer, line) for suppression.
type allowSet struct {
	// all keeps source order for deterministic hygiene output.
	all []*allowDirective
	// byLine maps file -> analyzer -> line -> directive.
	byLine map[string]map[string]map[int]*allowDirective
}

// collectAllows parses every directive in the program's non-test files.
// Test files are skipped on purpose: analyzers never report into them,
// so a directive there could only ever be stale.
func collectAllows(prog *Program) *allowSet {
	s := &allowSet{byLine: make(map[string]map[string]map[int]*allowDirective)}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, allowPrefix) {
						continue
					}
					d := &allowDirective{pos: prog.Fset.Position(c.Pos())}
					rest := strings.TrimPrefix(c.Text, allowPrefix)
					fields := strings.Fields(rest)
					if len(fields) > 0 {
						d.analyzer = fields[0]
						d.reason = strings.Join(fields[1:], " ")
					}
					s.all = append(s.all, d)
					if d.analyzer == "" {
						continue
					}
					file := s.byLine[d.pos.Filename]
					if file == nil {
						file = make(map[string]map[int]*allowDirective)
						s.byLine[d.pos.Filename] = file
					}
					lines := file[d.analyzer]
					if lines == nil {
						lines = make(map[int]*allowDirective)
						file[d.analyzer] = lines
					}
					lines[d.pos.Line] = d
				}
			}
		}
	}
	return s
}

// suppress reports whether a diagnostic from analyzer at p is covered by
// a directive, marking the directive used.
func (s *allowSet) suppress(analyzer string, p token.Position) bool {
	lines := s.byLine[p.Filename][analyzer]
	if lines == nil {
		return false
	}
	// Same line (trailing comment) or the line above (standalone comment).
	for _, line := range []int{p.Line, p.Line - 1} {
		if d := lines[line]; d != nil {
			d.used = true
			return true
		}
	}
	return false
}

// hygiene returns the directive-discipline diagnostics: malformed or
// reasonless directives, directives that suppressed nothing, and (under
// strict) directives naming analyzers outside the known set. known maps
// each active analyzer to whether it ran: a program rule skipped on a
// partial load leaves its directives unjudged, and directives for
// analyzers outside the set are skipped when non-strict, so a
// single-analyzer fixture run does not flag another analyzer's allows.
func (s *allowSet) hygiene(known map[string]bool, strict bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range s.all {
		ran, active := known[d.analyzer]
		switch {
		case d.analyzer == "":
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: "repolint",
				Message: "lint:allow needs an analyzer name and a reason"})
		case !active:
			if strict {
				out = append(out, Diagnostic{Pos: d.pos, Analyzer: "repolint",
					Message: "lint:allow names unknown analyzer " + strconv.Quote(d.analyzer)})
			}
		case d.reason == "":
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: "repolint",
				Message: "lint:allow " + d.analyzer + " needs a reason"})
		case !d.used && ran:
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: "repolint",
				Message: "lint:allow " + d.analyzer + " suppresses nothing; remove it"})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out
}
