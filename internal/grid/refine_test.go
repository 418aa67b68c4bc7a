package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/dist/store"
	"repro/internal/profile"
	"repro/internal/work"
)

// TestShortlistKeepsFrontAndBand pins the slack-relaxed culling: the
// whole front survives, near-front points inside the slack band survive,
// and only points beaten by the full margin on both objectives drop.
func TestShortlistKeepsFrontAndBand(t *testing.T) {
	var f Frontier
	for i, l := range [][]byte{
		line("front-fast", true, 30, 1000),
		line("front-cool", true, 10, 2000),
		// Dominated by front-cool, but not by the 25% margin on leakage
		// (10 > 11/1.25): analytical error could promote it, keep it.
		line("near", true, 11, 3000),
		// Dominated by front-cool with margin to spare on both axes
		// (10 ≤ 30/1.25, 2000 ≤ 3000/1.25): no plausible error saves it.
		line("far", true, 30, 3000),
		line("infeasible", false, 1, 1),
	} {
		if err := f.Add(i, l); err != nil {
			t.Fatal(err)
		}
	}
	got := f.Shortlist(0.25)
	if want := []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("Shortlist(0.25) = %v, want %v", got, want)
	}
	// slack ≤ 0 means DefaultSlack, not "everything culls itself".
	if got, want := f.Shortlist(0), f.Shortlist(DefaultSlack); !reflect.DeepEqual(got, want) {
		t.Errorf("Shortlist(0) = %v, want DefaultSlack result %v", got, want)
	}
	var empty Frontier
	if got := empty.Shortlist(0.25); got == nil || len(got) != 0 {
		t.Errorf("empty Shortlist = %#v, want empty non-nil", got)
	}
}

// TestShortlistAlwaysContainsFront is the invariant the refinement
// correctness argument rests on: for any slack, every front point is in
// the shortlist.
func TestShortlistAlwaysContainsFront(t *testing.T) {
	var f Frontier
	cands := [][]byte{
		line("a", true, 30, 1000),
		line("b", true, 10, 2000),
		line("c", true, 5, 4000),
		line("d", true, 12, 2100),
		line("e", true, 40, 900),
	}
	for i, l := range cands {
		if err := f.Add(i, l); err != nil {
			t.Fatal(err)
		}
	}
	frontNames := map[string]bool{}
	for _, p := range f.Points() {
		frontNames[p.Name] = true
	}
	for _, slack := range []float64{0.01, 0.25, 1.0, 10.0} {
		short := map[int]bool{}
		for _, i := range f.Shortlist(slack) {
			short[i] = true
		}
		for i := range cands {
			var res struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(cands[i], &res); err != nil {
				t.Fatal(err)
			}
			if frontNames[res.Name] && !short[i] {
				t.Errorf("slack %g: front point %q (index %d) culled from shortlist %v",
					slack, res.Name, i, f.Shortlist(slack))
			}
		}
	}
}

// TestDerived pins the shortlist-to-scenario-batch bridge: names are
// preserved, only the fidelity flips, and bad inputs are refused.
func TestDerived(t *testing.T) {
	b := mustExpand(t, `{"grid":{
		"axes":{"l1_kb":[16,32],"l2_kb":[256,512]},
		"base":{"workload":"tpcc","accesses":20000,"fidelity":"analytical"}
	}}`)
	d, err := b.Derived([]int{1, 3}, profile.FidelityTrace)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Scenarios) != 2 {
		t.Fatalf("derived %d scenarios, want 2", len(d.Scenarios))
	}
	for k, i := range []int{1, 3} {
		want := b.ConfigAt(i)
		got := d.Scenarios[k]
		if got.Name != want.Name {
			t.Errorf("derived[%d].Name = %q, want %q", k, got.Name, want.Name)
		}
		if got.Fidelity != profile.FidelityTrace {
			t.Errorf("derived[%d].Fidelity = %q, want %q", k, got.Fidelity, profile.FidelityTrace)
		}
		got.Fidelity = want.Fidelity
		if !reflect.DeepEqual(got, want) {
			t.Errorf("derived[%d] changed more than fidelity:\n got %+v\nwant %+v", k, got, want)
		}
	}
	if _, err := b.Derived([]int{0}, "quantum"); err == nil {
		t.Error("unknown fidelity accepted")
	}
	if _, err := b.Derived(nil, profile.FidelityTrace); err == nil {
		t.Error("empty shortlist accepted")
	}
	if _, err := b.Derived([]int{4}, profile.FidelityTrace); err == nil {
		t.Error("out-of-range index accepted")
	}
}

// TestRefineRejectsFidelityControl pins that Refine owns the fidelity
// ladder: a fidelity axis or a trace base is refused up front.
func TestRefineRejectsFidelityControl(t *testing.T) {
	axisSpec := loadSpec(t, `{"grid":{
		"name":"g-l1{l1_kb}-l2{l2_kb}-{workload}-s{scheme}-{fidelity}",
		"axes":{"l1_kb":[16,32],"fidelity":["analytical","trace"]},
		"base":{"workload":"tpcc","l2_kb":256,"accesses":20000}
	}}`)
	err := Refine(t.Context(), axisSpec, RefineOptions{}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "drop the fidelity axis") {
		t.Errorf("fidelity axis: err = %v", err)
	}
	traceSpec := loadSpec(t, `{"grid":{
		"axes":{"l1_kb":[16,32]},
		"base":{"workload":"tpcc","l2_kb":256,"accesses":20000,"fidelity":"trace"}
	}}`)
	err = Refine(t.Context(), traceSpec, RefineOptions{}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "drop base fidelity") {
		t.Errorf("trace base: err = %v", err)
	}
}

// TestRefineAllInfeasible pins the empty-shortlist path: a grid whose
// AMAT budget no knob assignment can meet emits its analytical lines, no
// trace phase, and an empty frontier summary.
func TestRefineAllInfeasible(t *testing.T) {
	spec := loadSpec(t, `{"grid":{
		"axes":{"l1_kb":[16,32],"l2_kb":[256,512]},
		"base":{"workload":"tpcc","accesses":20000,"amat_budget_ps":1}
	}}`)
	var out bytes.Buffer
	if err := Refine(t.Context(), spec, RefineOptions{Workers: 2}, &out); err != nil {
		t.Fatal(err)
	}
	lines := splitLines(out.String())
	if len(lines) != 5 {
		t.Fatalf("emitted %d lines, want 4 analytical + 1 summary:\n%s", len(lines), out.String())
	}
	if got := lines[len(lines)-1]; got != `{"frontier":[]}` {
		t.Errorf("summary = %s, want empty frontier", got)
	}
}

// TestRefineAgreesWithTraceFrontier is the acceptance test DefaultSlack's
// doc comment promises: on a registered-suite grid, the multi-fidelity
// refinement (analytical sweep → shortlist → trace re-run) must produce
// the same frontier, point for point and coordinate for coordinate, as
// running the whole grid at trace fidelity — i.e. the slack band is wide
// enough that no true front point is culled analytically.
func TestRefineAgreesWithTraceFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a grid at trace fidelity twice")
	}
	// The AMAT budget is the axis that actually bends the frontier: a
	// tighter budget forces the knob optimizer onto faster, leakier
	// assignments, so each budget contributes a distinct
	// (achieved-AMAT, leakage) trade-off point. Budgets sit well above the
	// designs' minimum achievable AMAT (~3004ps for l2=256, ~3018ps for
	// l2=512 with fast memory) so analytical-vs-trace error cannot flip
	// feasibility, only coordinates — the error class the slack band covers.
	const doc = `{"grid":{
		"name":"g-l2{l2_kb}-b{amat_budget_ps}",
		"axes":{"l2_kb":[256,512],"amat_budget_ps":[3050,3150,3350,3700]},
		"base":{"workload":"tpcc","l1_kb":16,"accesses":20000,"fast_memory":true%s}
	}}`

	// Ground truth: the full grid at trace fidelity, reduced to its front.
	tb := mustExpand(t, fmt.Sprintf(doc, `,"fidelity":"trace"`))
	truth, err := work.Collect(t.Context(), tb, work.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var full Frontier
	for i, l := range truth {
		if err := full.Add(i, l); err != nil {
			t.Fatal(err)
		}
	}
	want := full.Points()
	if len(want) < 2 {
		t.Fatalf("trace frontier has %d points; grid too degenerate to exercise refinement", len(want))
	}

	var out bytes.Buffer
	var mu sync.Mutex
	phases := map[string]int{}
	err = Refine(t.Context(), loadSpec(t, fmt.Sprintf(doc, "")), RefineOptions{
		Workers: 4,
		Progress: func(phase string, done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total > phases[phase] {
				phases[phase] = total
			}
		},
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(out.String())
	var got frontierSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("summary line: %v", err)
	}
	if !reflect.DeepEqual(got.Frontier, want) {
		t.Errorf("refined frontier disagrees with full trace frontier:\n got %+v\nwant %+v", got.Frontier, want)
	}
	// The refinement must have been cheaper than the ground truth: the
	// trace phase runs only the shortlist, and both phases were observed.
	if phases["analytical"] != tb.Len() {
		t.Errorf("analytical phase total = %d, want %d", phases["analytical"], tb.Len())
	}
	if n := phases["refine"]; n == 0 || n > tb.Len() {
		t.Errorf("refine phase total = %d, want within (0, %d]", n, tb.Len())
	}
	// Output shape: analytical lines, then shortlist trace lines, then the
	// summary — n + shortlist + 1 lines.
	if wantLines := tb.Len() + phases["refine"] + 1; len(lines) != wantLines {
		t.Errorf("emitted %d lines, want %d", len(lines), wantLines)
	}
}

// TestRefineEquivalentAcrossExecutionShapes extends the repository's
// byte-identical-output invariant to the two-phase refined-frontier flow:
// sequential, parallel-streamed, checkpointed-then-resumed (killed during
// phase one), and per-phase in-process distributed execution must emit
// identical bytes.
func TestRefineEquivalentAcrossExecutionShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the refinement flow through four execution shapes")
	}
	const doc = `{"grid":{
		"axes":{"l1_kb":[16,32],"l2_kb":[256,512]},
		"base":{"workload":"tpcc","accesses":20000}
	}}`

	var seq bytes.Buffer
	if err := Refine(t.Context(), loadSpec(t, doc), RefineOptions{Workers: 1}, &seq); err != nil {
		t.Fatal(err)
	}
	if n := len(splitLines(seq.String())); n < 6 {
		t.Fatalf("sequential refinement emitted %d lines, want ≥ 4 analytical + ≥ 1 trace + summary:\n%s", n, seq.String())
	}

	t.Run("parallel-streamed", func(t *testing.T) {
		var par bytes.Buffer
		if err := Refine(t.Context(), loadSpec(t, doc), RefineOptions{Workers: 4}, &par); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(par.Bytes(), seq.Bytes()) {
			t.Errorf("parallel output differs:\n got: %q\nwant: %q", par.Bytes(), seq.Bytes())
		}
	})

	t.Run("checkpointed-resumed", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "refine.journal")
		var full bytes.Buffer
		if err := Refine(t.Context(), loadSpec(t, doc), RefineOptions{Workers: 2, Checkpoint: path}, &full); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(full.Bytes(), seq.Bytes()) {
			t.Fatalf("checkpointed output differs before any kill:\n got: %q\nwant: %q", full.Bytes(), seq.Bytes())
		}
		// Simulate a kill during phase one: cut the analytical journal back
		// to header + first entry with a torn second entry, and drop the
		// phase-two journal entirely (it had not been started yet).
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		jlines := strings.SplitAfter(string(data), "\n")
		torn := jlines[0] + jlines[1] + `{"i":1,"line":{"tr`
		if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(path + RefineCheckpointSuffix); err != nil {
			t.Fatal(err)
		}
		var resumed bytes.Buffer
		if err := Refine(t.Context(), loadSpec(t, doc), RefineOptions{Workers: 2, Checkpoint: path, Resume: true}, &resumed); err != nil {
			t.Fatal(err)
		}
		// The resumed stream re-emits everything but the journal-replayed
		// first analytical line; prepend it to reconstruct the full stream.
		got := append([]byte(splitLines(seq.String())[0]+"\n"), resumed.Bytes()...)
		if !bytes.Equal(got, seq.Bytes()) {
			t.Errorf("resumed output differs:\n got: %q\nwant: %q", got, seq.Bytes())
		}
	})

	t.Run("distributed", func(t *testing.T) {
		if !bytes.Equal(refineDistributed(t, doc), seq.Bytes()) {
			t.Errorf("distributed output differs from sequential run")
		}
	})
}

// refineDistributed reconstructs the refined-frontier flow with each
// phase running through an in-process dist.Service and two
// registry-executor workers — the same library calls Refine composes,
// with dist in place of work.Run.
func refineDistributed(t *testing.T, doc string) []byte {
	t.Helper()
	spec := loadSpec(t, doc)
	spec.Grid.Base.Fidelity = profile.FidelityAnalytical
	b, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	var fr Frontier
	for i, l := range distributeBatch(t, b) {
		if err := fr.Add(i, l); err != nil {
			t.Fatal(err)
		}
		out.Write(l)
		out.WriteByte('\n')
	}
	derived, err := b.Derived(fr.Shortlist(0), profile.FidelityTrace)
	if err != nil {
		t.Fatal(err)
	}
	var refined Frontier
	for i, l := range distributeBatch(t, derived) {
		if err := refined.Add(i, l); err != nil {
			t.Fatal(err)
		}
		out.Write(l)
		out.WriteByte('\n')
	}
	summary, err := refined.SummaryLine()
	if err != nil {
		t.Fatal(err)
	}
	out.Write(summary)
	out.WriteByte('\n')
	return out.Bytes()
}

// distributeBatch runs one batch through an in-process dist.Service over
// a temp store with two registry-executor workers and returns its lines
// in input order.
func distributeBatch(t *testing.T, b work.Batch) []json.RawMessage {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(t.Context())
	defer stop()
	svc, err := dist.NewService(ctx, dist.ServiceConfig{
		Store: st, Units: 3, LeaseTTL: time.Minute, RetryAfter: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	bs, _, err := svc.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		w := &dist.Worker{
			Coordinator: srv.URL,
			ID:          fmt.Sprintf("refine-w%d", i),
			Exec:        dist.RegistryExecutor(1, nil),
			Client:      srv.Client(),
			Poll:        5 * time.Millisecond,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Run(t.Context())
		}(i)
	}
	var lines []json.RawMessage
	err = svc.Results(t.Context(), bs.ID, func(_ int, line []byte) error {
		lines = append(lines, line)
		return nil
	})
	stop() // leases answer done from here: the workers exit
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return lines
}

// loadSpec parses a spec document or fails the test.
func loadSpec(t *testing.T, doc string) Spec {
	t.Helper()
	s, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustExpand loads and expands a spec document or fails the test.
func mustExpand(t *testing.T, doc string) *Batch {
	t.Helper()
	b, err := loadSpec(t, doc).Expand()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// splitLines splits NDJSON output into its non-empty lines.
func splitLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if l != "" {
			out = append(out, l)
		}
	}
	return out
}
