package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// line fabricates one grid result line with the fields the frontier
// reads.
func line(name string, feasible bool, leakMW, amatPS float64) []byte {
	return []byte(fmt.Sprintf(
		`{"name":%q,"l2_optimization":{"feasible":%v,"leakage_mw":%g,"amat_ps":%g}}`,
		name, feasible, leakMW, amatPS))
}

// TestFrontierDominance pins the reduction: dominated points drop,
// survivors sort by increasing AMAT with strictly decreasing leakage.
func TestFrontierDominance(t *testing.T) {
	var f Frontier
	for i, l := range [][]byte{
		line("mid", true, 10, 2000),
		line("dominated", true, 12, 2500), // slower and leakier than "mid"
		line("fast-hot", true, 30, 1500),
		line("slow-cool", true, 5, 3000),
		line("infeasible", false, 1, 1),
	} {
		if err := f.Add(i, l); err != nil {
			t.Fatal(err)
		}
	}
	pts := f.Points()
	want := []FrontierPoint{
		{Name: "fast-hot", AMATPS: 1500, LeakageMW: 30},
		{Name: "mid", AMATPS: 2000, LeakageMW: 10},
		{Name: "slow-cool", AMATPS: 3000, LeakageMW: 5},
	}
	if len(pts) != len(want) {
		t.Fatalf("front = %+v, want %+v", pts, want)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Errorf("front[%d] = %+v, want %+v", i, pts[i], want[i])
		}
	}
}

// TestFrontierInputOrderTieBreak pins the strict tie-breaking: of two
// points with identical coordinates, the earlier input index survives —
// regardless of Add call order, so streamed and resumed runs agree.
func TestFrontierInputOrderTieBreak(t *testing.T) {
	var f Frontier
	// Added out of input order, as a resumed run would.
	if err := f.Add(7, line("later", true, 10, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(2, line("earlier", true, 10, 2000)); err != nil {
		t.Fatal(err)
	}
	pts := f.Points()
	if len(pts) != 1 || pts[0].Name != "earlier" {
		t.Fatalf("front = %+v, want exactly the earlier point", pts)
	}
}

// TestFrontierEqualAMATKeepsCooler pins the same-AMAT case: only the
// least-leaky point at a given AMAT survives.
func TestFrontierEqualAMATKeepsCooler(t *testing.T) {
	var f Frontier
	if err := f.Add(0, line("hot", true, 20, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(1, line("cool", true, 10, 2000)); err != nil {
		t.Fatal(err)
	}
	pts := f.Points()
	if len(pts) != 1 || pts[0].Name != "cool" {
		t.Fatalf("front = %+v, want exactly the cooler point", pts)
	}
}

// TestFrontierSummaryLine pins the summary frame, including the empty
// (all-infeasible) case rendering as an empty array, not null.
func TestFrontierSummaryLine(t *testing.T) {
	var empty Frontier
	if err := empty.Add(0, line("x", false, 0, 0)); err != nil {
		t.Fatal(err)
	}
	s, err := empty.SummaryLine()
	if err != nil {
		t.Fatal(err)
	}
	if string(s) != `{"frontier":[]}` {
		t.Errorf("empty summary = %s", s)
	}

	var one Frontier
	if err := one.Add(0, line("p", true, 2.5, 1800)); err != nil {
		t.Fatal(err)
	}
	s, err = one.SummaryLine()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"frontier":[{"name":"p","amat_ps":1800,"leakage_mw":2.5}]}`
	if string(s) != want {
		t.Errorf("summary = %s, want %s", s, want)
	}
}

// TestFrontierBadLine pins the parse diagnostic.
func TestFrontierBadLine(t *testing.T) {
	var f Frontier
	if err := f.Add(3, []byte(`not json`)); err == nil {
		t.Fatal("bad line accepted")
	}
}

// referenceAdd is Add as it was before lines in json.Marshal's result
// frame took the one-pass branch: every line through json.Unmarshal.
// FuzzFrontierAdd holds Add to it.
func (f *Frontier) referenceAdd(i int, line []byte) error {
	var res struct {
		Name string `json:"name"`
		L2   struct {
			Feasible  bool    `json:"feasible"`
			LeakageMW float64 `json:"leakage_mw"`
			AMATPS    float64 `json:"amat_ps"`
		} `json:"l2_optimization"`
	}
	if err := json.Unmarshal(line, &res); err != nil {
		return fmt.Errorf("grid: frontier line %d: %w", i, err)
	}
	if !res.L2.Feasible {
		return nil
	}
	f.cand = append(f.cand, frontierCand{
		idx:       i,
		name:      res.Name,
		amatPS:    res.L2.AMATPS,
		leakageMW: res.L2.LeakageMW,
	})
	return nil
}

// runItemLines returns the lines RunItem emits for a small analytical
// grid: two feasible points (the midpoint budget) and two infeasible
// ones (1 ps), then the same four with a tuple budget.
func runItemLines(tb testing.TB) [][]byte {
	tb.Helper()
	var lines [][]byte
	for _, tuples := range []string{``, `,"tuple_budgets":[[1,2]]`} {
		s, err := Load(strings.NewReader(`{"grid":{"name":"f-l1{l1_kb}-b{amat_budget_ps}",
			"axes":{"l1_kb":[16,32],"amat_budget_ps":[0,1]},
			"base":{"workload":"average","l2_kb":256,"accesses":20000,"fidelity":"analytical"` + tuples + `}}}`))
		if err != nil {
			tb.Fatal(err)
		}
		gb, err := s.Expand()
		if err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < gb.Len(); i++ {
			l, err := gb.RunItem(context.Background(), i)
			if err != nil {
				tb.Fatal(err)
			}
			lines = append(lines, l)
		}
	}
	return lines
}

// TestFrontierScansRunItemLines checks that the one-pass branch reads
// what a grid run emits: every line without tuples, feasible or not. A
// line with tuples takes encoding/json's branch.
func TestFrontierScansRunItemLines(t *testing.T) {
	nFeasible := 0
	for i, l := range runItemLines(t) {
		_, feasible, scanned := scanLine(l)
		if tuples := bytes.Contains(l, []byte(`"tuples"`)); scanned == tuples {
			t.Errorf("line %d (tuples %v): scanned %v: %s", i, tuples, scanned, l)
		}
		if feasible {
			nFeasible++
		}
	}
	if nFeasible != 2 {
		t.Errorf("%d of the scanned lines feasible, want 2", nFeasible)
	}
}

// FuzzFrontierAdd holds Add to referenceAdd on any line: the same error
// text, or the same candidate (index, name and the bits of both
// coordinates) or none.
func FuzzFrontierAdd(f *testing.F) {
	lines := runItemLines(f)
	for _, l := range lines {
		f.Add(l)
	}
	feasibleLine := lines[0]
	for _, r := range []scenario.Result{
		{Name: `a<b&"c"\d`},
		{Name: "café  "},
		{Name: "ctl\x01"},
		{Name: "x", AMATBudgetPS: 1e21, M1: 5e-324, M2: -0.0},
	} {
		r.L2Optimization.Feasible = true
		r.L2Optimization.LeakageMW = 1.5e-7
		r.L2Optimization.AMATPS = 2e21
		l, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(l)
	}
	for _, edit := range [][2]string{
		{`":`, `": `},
		{`{"name"`, ` {"name"`},
		{`"name"`, `"NAME"`},
		{`"name"`, `"n\u0061me"`},
		{`"leakage_mw"`, `"Leakage_MW"`},
		{`{"feasible"`, `{"feasible":false,"feasible"`},
		{`{"name":"`, `{"name":"dup","name":"`},
		{`"feasible":true`, `"feasible":tru`},
		{`"feasible":true`, `"feasible":1`},
		{`}}`, `}} `},
		{`}}`, `}}x`},
		{`}}`, `}}{}`},
		{`}}`, `}`},
		{`}}`, `},"tuples":null}`},
	} {
		f.Add(bytes.Replace(feasibleLine, []byte(edit[0]), []byte(edit[1]), 1))
	}
	// Numbers in a field Add skips and in the two it reads.
	const frame = `{"name":"p","l1_local_miss":%s,"l2_local_miss":0.3,"amat_budget_ps":1900,` +
		`"l2_optimization":{"feasible":true,"leakage_mw":%s,"amat_ps":%s,"energy_pj":1,` +
		`"l2_cell_knobs":"","l2_periph_knobs":""}}`
	for _, n := range []string{"01", "00.5", "1.", "-", "1e+", "1E+2", "-0", "0.0e-0",
		"1e400", "-1e400", "1e-400", "4.9e-324", `"1"`, "null", "+1", ".5", "0x10", "NaN"} {
		f.Add([]byte(fmt.Sprintf(frame, n, "1", "2")))
		f.Add([]byte(fmt.Sprintf(frame, "0", n, "2")))
		f.Add([]byte(fmt.Sprintf(frame, "0", "1", n)))
	}
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, line []byte) {
		var got, want Frontier
		gotErr, wantErr := got.Add(5, line), want.referenceAdd(5, line)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("Add: %v\nreferenceAdd: %v", gotErr, wantErr)
		}
		if len(got.cand) != len(want.cand) {
			t.Fatalf("candidates %+v, want %+v", got.cand, want.cand)
		}
		for k, g := range got.cand {
			w := want.cand[k]
			if g.idx != w.idx || g.name != w.name ||
				math.Float64bits(g.amatPS) != math.Float64bits(w.amatPS) ||
				math.Float64bits(g.leakageMW) != math.Float64bits(w.leakageMW) {
				t.Fatalf("candidate %+v, want %+v", g, w)
			}
		}
	})
}
