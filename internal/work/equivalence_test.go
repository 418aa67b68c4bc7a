package work_test

// The cross-kind equivalence suite: every payload kind registered with
// the work registry must produce byte-identical output across the four
// execution shapes the unified driver promises — sequential, parallel
// streamed, checkpointed-then-resumed, and in-process distributed. This is
// the contract a new workload kind signs by calling work.Register: add a
// fixture here and the whole matrix is enforced for it.

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/dist/store"
	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/work"
)

// tinyExpEnv is an experiment environment cheap enough to evaluate
// repeatedly; determinism does not depend on trace length.
func tinyExpEnv() *exp.Env {
	e := exp.NewQuickEnv()
	e.Accesses = 30_000
	return e
}

// fixtures returns one representative batch per registered kind. The
// suite fails when a registered kind has no fixture, so adding a kind
// without wiring it into the equivalence matrix is impossible.
func fixtures(t testing.TB) map[string]work.Batch {
	t.Helper()
	b, err := scenario.LoadBatch(strings.NewReader(`{"scenarios":[
		{"name":"a","l1_kb":16,"l2_kb":256,"workload":"tpcc","accesses":20000},
		{"name":"b","l1_kb":16,"l2_kb":512,"workload":"tpcc","accesses":20000},
		{"name":"c","l1_kb":32,"l2_kb":256,"workload":"tpcc","accesses":20000},
		{"name":"d","l1_kb":32,"l2_kb":512,"workload":"tpcc","accesses":20000}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := exp.NewBatch([]string{"tab-fit", "tab-missrates", "tab-ext-node"}, tinyExpEnv())
	if err != nil {
		t.Fatal(err)
	}
	// The grid fixture mirrors the scenario fixture's four points, but
	// generated: the batch carries only axes, and every execution shape —
	// including the wire-decoded distributed slices — re-expands them.
	gs, err := grid.Load(strings.NewReader(`{"grid":{
		"axes":{"l1_kb":[16,32],"l2_kb":[256,512]},
		"base":{"workload":"tpcc","accesses":20000}
	}}`))
	if err != nil {
		t.Fatal(err)
	}
	gb, err := gs.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]work.Batch{
		scenario.JournalKind: b,
		exp.WorkKind:         eb,
		grid.WorkKind:        gb,
	}
}

// TestAllKindsEquivalentAcrossExecutionShapes is the acceptance suite for
// the unified workload API.
func TestAllKindsEquivalentAcrossExecutionShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered kind through four execution shapes")
	}
	fx := fixtures(t)
	for _, kind := range work.Kinds() {
		if kind == "toy" {
			continue // the driver's own synthetic test kind (work_test.go)
		}
		b, ok := fx[kind]
		if !ok {
			t.Fatalf("registered kind %q has no equivalence fixture; add one to fixtures()", kind)
		}
		t.Run(kind, func(t *testing.T) {
			var seq bytes.Buffer
			if err := work.Run(t.Context(), b, work.Options{Workers: 1}, &seq); err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(seq.String(), "\n"); n != b.Len() {
				t.Fatalf("sequential run emitted %d lines for %d items", n, b.Len())
			}
			t.Run("parallel-streamed", func(t *testing.T) {
				var par bytes.Buffer
				if err := work.Run(t.Context(), b, work.Options{Workers: 4}, &par); err != nil {
					t.Fatal(err)
				}
				diffBytes(t, par.Bytes(), seq.Bytes())
			})
			t.Run("collected", func(t *testing.T) {
				lines, err := work.Collect(t.Context(), b, work.Options{Workers: 3})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				for _, l := range lines {
					buf.Write(l)
					buf.WriteByte('\n')
				}
				diffBytes(t, buf.Bytes(), seq.Bytes())
			})
			t.Run("checkpointed-resumed", func(t *testing.T) {
				diffBytes(t, checkpointResumed(t, b), seq.Bytes())
			})
			t.Run("distributed", func(t *testing.T) {
				diffBytes(t, distributed(t, b), seq.Bytes())
			})
			t.Run("metrics-streamed", func(t *testing.T) {
				// Instrumentation is observation-only: the same parallel
				// run with a live registry emits the same bytes, and the
				// registry ends up with one completion per item under the
				// kind's declared fidelity label.
				reg := obs.NewRegistry()
				var par bytes.Buffer
				if err := work.Run(t.Context(), b, work.Options{Workers: 4, Metrics: reg}, &par); err != nil {
					t.Fatal(err)
				}
				diffBytes(t, par.Bytes(), seq.Bytes())
				c := reg.Snapshot().Family(work.MetricItemsTotal).Get(kind, work.FidelityOf(b))
				if c == nil || c.Value != float64(b.Len()) {
					t.Fatalf("%s{%s,%s} = %+v, want %d", work.MetricItemsTotal, kind, work.FidelityOf(b), c, b.Len())
				}
			})
		})
	}
}

// TestAnalyticalGridEquivalentAcrossExecutionShapes runs a grid pinned
// to the analytical miss-matrix fidelity through all five execution
// shapes. Fidelity travels inside the expanded configs (grid base), so
// the wire-decoded distributed slices re-expand to analytical points
// too; the shared profile memo behind the fast path must therefore be
// deterministic under concurrency for this to hold byte-for-byte.
func TestAnalyticalGridEquivalentAcrossExecutionShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a grid through five execution shapes")
	}
	gs, err := grid.Load(strings.NewReader(`{"grid":{
		"name":"a-l1{l1_kb}-l2{l2_kb}-{fidelity}",
		"axes":{"l1_kb":[16,32],"l2_kb":[256,512]},
		"base":{"workload":"tpcc","accesses":20000,"fidelity":"analytical"}
	}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := gs.Expand()
	if err != nil {
		t.Fatal(err)
	}

	var seq bytes.Buffer
	if err := work.Run(t.Context(), b, work.Options{Workers: 1}, &seq); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(seq.String(), "\n"); n != b.Len() {
		t.Fatalf("sequential run emitted %d lines for %d items", n, b.Len())
	}
	t.Run("parallel-streamed", func(t *testing.T) {
		var par bytes.Buffer
		if err := work.Run(t.Context(), b, work.Options{Workers: 4}, &par); err != nil {
			t.Fatal(err)
		}
		diffBytes(t, par.Bytes(), seq.Bytes())
	})
	t.Run("collected", func(t *testing.T) {
		lines, err := work.Collect(t.Context(), b, work.Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, l := range lines {
			buf.Write(l)
			buf.WriteByte('\n')
		}
		diffBytes(t, buf.Bytes(), seq.Bytes())
	})
	t.Run("checkpointed-resumed", func(t *testing.T) {
		diffBytes(t, checkpointResumed(t, b), seq.Bytes())
	})
	t.Run("distributed", func(t *testing.T) {
		diffBytes(t, distributed(t, b), seq.Bytes())
	})
}

// diffBytes fails with a readable diff when got differs from want.
func diffBytes(t *testing.T, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from sequential run:\n got: %q\nwant: %q", got, want)
	}
}

// checkpointResumed runs the batch checkpointed, simulates a kill by
// cutting the journal back to its header plus first entry (with a torn
// second entry, as a crash mid-append leaves), resumes, and returns
// journal prefix + resumed emission.
func checkpointResumed(t *testing.T, b work.Batch) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "equiv.journal")
	jr, done, err := work.OpenJournal(path, b, false)
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := work.Run(t.Context(), b, work.Options{Workers: 2, Journal: jr, Done: done}, &full); err != nil {
		t.Fatal(err)
	}
	jr.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	jlines := strings.SplitAfter(string(data), "\n")
	torn := jlines[0] + jlines[1] + `{"i":1,"line":{"tr`
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	jr, done, err = work.OpenJournal(path, b, true)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if len(done) != 1 {
		t.Fatalf("replayed %d entries, want 1", len(done))
	}
	var resumed bytes.Buffer
	if err := work.Run(t.Context(), b, work.Options{Workers: 2, Journal: jr, Done: done}, &resumed); err != nil {
		t.Fatal(err)
	}
	prefix := append([]byte{}, done[0].Line...)
	prefix = append(prefix, '\n')
	return append(prefix, resumed.Bytes()...)
}

// distributed runs the batch through an in-process dist.Service over a
// temp store with two registry-executor workers and returns its ordered
// output.
func distributed(t *testing.T, b work.Batch) []byte {
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
			ID:          fmt.Sprintf("equiv-w%d", i),
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
	var out bytes.Buffer
	err = svc.Results(t.Context(), bs.ID, func(_ int, line []byte) error {
		out.Write(line)
		out.WriteByte('\n')
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
	return out.Bytes()
}
