package analysis_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// One fixture tree per analyzer, each seeding the violations the
// analyzer exists to catch right next to the allowed shape of the same
// idiom — the want comments prove the flagging, the quiet lines prove
// the analyzer does not overreach.

func TestNoFanout(t *testing.T)    { analysistest.Run(t, analysis.NoFanout, "nofanout") }
func TestMapOrder(t *testing.T)    { analysistest.Run(t, analysis.MapOrder, "maporder") }
func TestNoClock(t *testing.T)     { analysistest.Run(t, analysis.NoClock, "noclock") }
func TestCtxFlow(t *testing.T)     { analysistest.Run(t, analysis.CtxFlow, "ctxflow") }
func TestFloatFmt(t *testing.T)    { analysistest.Run(t, analysis.FloatFmt, "floatfmt") }
func TestKindFixture(t *testing.T) { analysistest.Run(t, analysis.KindFixture, "kindfixture") }
func TestDeadExport(t *testing.T)  { analysistest.Run(t, analysis.DeadExport, "deadexport") }

// TestDeadExportSilentOnPartialLoad pins the whole-program contract: a
// load that misses some of the module cannot see every caller, so the
// rule reports nothing — and its allow directives are not stale.
func TestDeadExportSilentOnPartialLoad(t *testing.T) {
	prog, err := analysis.LoadTree(context.Background(), "testdata/deadexport/src")
	if err != nil {
		t.Fatal(err)
	}
	prog.Complete = false
	diags := analysis.RunSuite(prog, analysis.SuiteOptions{Analyzers: []*analysis.Analyzer{analysis.DeadExport}, Strict: true})
	if len(diags) != 0 {
		t.Fatalf("partial load: %d diagnostics, want none:\n%s", len(diags), render(diags))
	}
}

// TestAllowHygiene pins the escape hatch's discipline: malformed,
// reasonless, stale, and unknown-analyzer directives are diagnostics
// themselves, while a correct directive suppresses silently.
func TestAllowHygiene(t *testing.T) {
	prog, err := analysis.LoadTree(context.Background(), "testdata/hygiene/src")
	if err != nil {
		t.Fatal(err)
	}

	strict := analysis.RunSuite(prog, analysis.SuiteOptions{Analyzers: analysis.Suite(), Strict: true})
	wantStrict := []string{
		"needs an analyzer name and a reason",
		"lint:allow noclock needs a reason",
		"suppresses nothing; remove it",
		`names unknown analyzer "othertool"`,
	}
	if len(strict) != len(wantStrict) {
		t.Fatalf("strict run: %d diagnostics, want %d:\n%s", len(strict), len(wantStrict), render(strict))
	}
	for i, want := range wantStrict {
		if !strings.Contains(strict[i].Message, want) {
			t.Errorf("strict[%d] = %q, want a message containing %q", i, strict[i].Message, want)
		}
		if strict[i].Analyzer != "repolint" {
			t.Errorf("strict[%d] attributed to %q, want the repolint pseudo-analyzer", i, strict[i].Analyzer)
		}
	}
	for _, d := range strict {
		if strings.Contains(d.Message, "direct time.Now") {
			t.Errorf("suppressed noclock diagnostic leaked: %s", d)
		}
	}

	// Non-strict drops only the unknown-analyzer finding, so fixture
	// trees can carry directives aimed at other tools.
	loose := analysis.RunSuite(prog, analysis.SuiteOptions{Analyzers: analysis.Suite()})
	if len(loose) != len(wantStrict)-1 {
		t.Fatalf("non-strict run: %d diagnostics, want %d:\n%s", len(loose), len(wantStrict)-1, render(loose))
	}
	for _, d := range loose {
		if strings.Contains(d.Message, "othertool") {
			t.Errorf("non-strict run flagged the foreign directive: %s", d)
		}
	}
}

func render(diags []analysis.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}
