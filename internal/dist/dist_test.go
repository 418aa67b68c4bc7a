package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist/journal"
	"repro/internal/dist/store"
	"repro/internal/exp"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/work"
)

// toyBatch is a fast synthetic work.Batch: item i's result line is
// {"i":i}, and a unit's payload is its own range. It exercises every
// protocol path without paying for real simulations.
type toyBatch struct{ n int }

func (b toyBatch) Kind() string          { return "toy" }
func (b toyBatch) Len() int              { return b.n }
func (b toyBatch) Hash() (string, error) { return fmt.Sprintf("toy%d", b.n), nil }
func (b toyBatch) RunItem(_ context.Context, i int) (json.RawMessage, error) {
	return json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)), nil
}
func (b toyBatch) MarshalRange(r sweep.Range) (json.RawMessage, error) { return json.Marshal(r) }

// toyExec executes toy units; failAt >= 0 makes the unit containing that
// index fail deterministically.
func toyExec(failAt int) Executor {
	return func(ctx context.Context, u Unit) ([][]byte, error) {
		var r sweep.Range
		if err := json.Unmarshal(u.Payload, &r); err != nil {
			return nil, err
		}
		var lines [][]byte
		for i := r.Lo; i < r.Hi; i++ {
			if i == failAt {
				return nil, fmt.Errorf("toy item %d exploded", i)
			}
			lines = append(lines, []byte(fmt.Sprintf(`{"i":%d}`, i)))
		}
		return lines, nil
	}
}

// toyWant renders the sequential toy output for n items.
func toyWant(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"i":%d}`+"\n", i)
	}
	return b.String()
}

// batchService boots a service over a temp store with batch b submitted
// — the shape of a one-shot serve. It returns the service, its server,
// the batch ID, and stop, which cancels the service context: from then
// on every lease answers done, as when a one-shot serve exits.
func batchService(t *testing.T, b work.Batch, cfg ServiceConfig) (*Service, *httptest.Server, string, context.CancelFunc) {
	t.Helper()
	ctx, stop := context.WithCancel(t.Context())
	t.Cleanup(stop)
	s, srv := startService(t, ctx, t.TempDir(), cfg)
	st, _, err := s.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	return s, srv, st.ID, stop
}

// results collects batch id's ordered output and its verdict.
func results(ctx context.Context, s *Service, id string) (string, error) {
	var buf bytes.Buffer
	err := s.Results(ctx, id, func(_ int, line []byte) error {
		buf.Write(line)
		buf.WriteByte('\n')
		return nil
	}, nil)
	return buf.String(), err
}

// runWorkers runs k in-process workers against the server and waits for
// all of them; the first non-nil worker error is returned. Against a live
// service workers poll for more work, so they return once the service
// stops (or ctx ends).
func runWorkers(ctx context.Context, srv *httptest.Server, k int, exec Executor) error {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		werr error
	)
	for i := 0; i < k; i++ {
		w := &Worker{
			Coordinator: srv.URL,
			ID:          fmt.Sprintf("w%d", i),
			Exec:        exec,
			Client:      srv.Client(),
			Poll:        5 * time.Millisecond,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				mu.Lock()
				if werr == nil {
					werr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return werr
}

// drive runs k workers against the service while reading batch id's
// output, then stops the service and waits for the workers. It returns
// the output, the batch's verdict, and the first worker error.
func drive(t *testing.T, s *Service, srv *httptest.Server, id string, stop context.CancelFunc, k int, exec Executor) (string, error, error) {
	t.Helper()
	werr := make(chan error, 1)
	go func() { werr <- runWorkers(t.Context(), srv, k, exec) }()
	out, verdict := results(t.Context(), s, id)
	stop()
	return out, verdict, <-werr
}

// TestToyDistributedOrder checks the basic contract on a synthetic batch:
// several workers, more units than workers, output in input order.
func TestToyDistributedOrder(t *testing.T) {
	s, srv, id, stop := batchService(t, toyBatch{10}, ServiceConfig{Units: 4})
	got, verdict, werr := drive(t, s, srv, id, stop, 3, toyExec(-1))
	if verdict != nil || werr != nil {
		t.Fatalf("verdict %v, workers %v", verdict, werr)
	}
	if want := toyWant(10); got != want {
		t.Errorf("distributed output out of order:\n got: %q\nwant: %q", got, want)
	}
}

// TestScenarioDistributedMatchesSequential is the acceptance test: a
// service with two in-process workers produces byte-identical NDJSON to
// the buffered sequential run of the same scenario batch.
func TestScenarioDistributedMatchesSequential(t *testing.T) {
	b := testBatch(t, 4)
	want := sequentialNDJSON(t, b)
	s, srv, id, stop := batchService(t, b, ServiceConfig{Units: 3})
	got, verdict, werr := drive(t, s, srv, id, stop, 2, RegistryExecutor(1, nil))
	if verdict != nil || werr != nil {
		t.Fatalf("verdict %v, workers %v", verdict, werr)
	}
	if got != string(want) {
		t.Errorf("distributed output differs from sequential:\n got: %s\nwant: %s", got, want)
	}
}

// testBatch builds a small real scenario batch (short simulations).
func testBatch(t *testing.T, n int) scenario.Batch {
	t.Helper()
	var cfgs []string
	for i := 0; i < n; i++ {
		cfgs = append(cfgs, fmt.Sprintf(
			`{"name":"s%d","l1_kb":16,"l2_kb":%d,"workload":"tpcc","accesses":20000}`, i, 256<<(i%2)))
	}
	b, err := scenario.LoadBatch(strings.NewReader(`{"scenarios":[` + strings.Join(cfgs, ",") + `]}`))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkerDeathReLease kills a worker mid-lease (it leases a unit and
// vanishes without heartbeating) and checks the lease expires, the unit is
// re-leased, and the batch still completes with ordered, complete output.
func TestWorkerDeathReLease(t *testing.T) {
	s, srv, id, stop := batchService(t, toyBatch{6}, ServiceConfig{Units: 3, LeaseTTL: 50 * time.Millisecond})

	// The zombie takes a lease and is never heard from again.
	if zombie := leaseRaw(t, srv, "zombie"); zombie.Unit == nil {
		t.Fatal("zombie got no unit")
	}
	got, verdict, werr := drive(t, s, srv, id, stop, 1, toyExec(-1))
	if verdict != nil || werr != nil {
		t.Fatalf("verdict %v, workers %v", verdict, werr)
	}
	if want := toyWant(6); got != want {
		t.Errorf("output after worker death:\n got: %q\nwant: %q", got, want)
	}
}

// TestLateResultIdempotent checks a presumed-dead worker's late result is
// accepted once and never duplicated: results are idempotent per index.
func TestLateResultIdempotent(t *testing.T) {
	dir := t.TempDir()
	s, srv := startService(t, t.Context(), dir, ServiceConfig{Units: 2, LeaseTTL: 50 * time.Millisecond})
	st, _, err := s.Submit(toyBatch{4})
	if err != nil {
		t.Fatal(err)
	}

	zombie := leaseRaw(t, srv, "zombie")
	if zombie.Unit == nil {
		t.Fatal("zombie got no unit")
	}
	wctx, stopWorkers := context.WithCancel(t.Context())
	werr := make(chan error, 1)
	go func() { werr <- runWorkers(wctx, srv, 1, toyExec(-1)) }()
	got, verdict := results(t.Context(), s, st.ID)
	stopWorkers()
	if err := <-werr; err != nil && wctx.Err() == nil {
		t.Fatal(err)
	}
	if verdict != nil {
		t.Fatal(verdict)
	}

	// The zombie wakes up and reports the unit everyone moved past.
	postToyResult(t, srv, "zombie", *zombie.Unit, -1)
	again, verdict := results(t.Context(), s, st.ID)
	if verdict != nil {
		t.Fatal(verdict)
	}
	want := toyWant(4)
	if got != want || again != want {
		t.Errorf("late result corrupted output:\n got: %q then %q\nwant: %q", got, again, want)
	}
	row := s.Status().Batches[0]
	if row.ItemsDone != 4 || row.ItemsExecuted != 4 {
		t.Errorf("late result counted twice: %+v", row)
	}
	// Header plus one entry per item: the late lines were not appended.
	if data, err := os.ReadFile(filepath.Join(dir, st.ID+".journal")); err != nil || bytes.Count(data, []byte("\n")) != 5 {
		t.Errorf("journal after late result (err %v):\n%s", err, data)
	}
}

// TestFailurePropagates checks a deterministic unit failure fails its
// batch: the worker reports it and Results returns it; leases then
// answer retry while the owning process lives and done once it stops.
func TestFailurePropagates(t *testing.T) {
	s, srv, id, stop := batchService(t, toyBatch{6}, ServiceConfig{Units: 3})

	werr := make(chan error, 1)
	go func() { werr <- runWorkers(t.Context(), srv, 2, toyExec(4)) }()
	if _, verdict := results(t.Context(), s, id); verdict == nil || !strings.Contains(verdict.Error(), "exploded") {
		t.Fatalf("Results verdict = %v, want the unit failure", verdict)
	}
	if lease := leaseRaw(t, srv, "latecomer"); lease.Done || lease.Unit != nil {
		t.Errorf("a failed batch leases nothing, but the live service is not done: %+v", lease)
	}
	stop()
	if err := <-werr; err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Fatalf("worker error = %v, want the toy explosion", err)
	}
	if lease := leaseRaw(t, srv, "latecomer"); !lease.Done {
		t.Error("once the service stops, leases must report done so workers exit")
	}
}

// TestResumeSkipsFinishedUnits admits a batch over a single-journal store
// (the one-shot -checkpoint shape) holding a finished prefix and checks:
// covered units are never leased, the journal's lines are attributed to
// it, and Results reassembles the full sequential output.
func TestResumeSkipsFinishedUnits(t *testing.T) {
	const n = 8
	b := toyBatch{n}
	hash, _ := b.Hash()
	path := filepath.Join(t.TempDir(), "toy.journal")

	// A previous run completed indices 0..4 (units 0 and 1 of 4, plus a
	// partial unit 2) before dying.
	j, err := journal.Create(path, journal.Header{Kind: b.Kind(), BatchSHA256: hash, N: n})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 4; i++ {
		if err := j.Record(i, []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	ctx, stop := context.WithCancel(t.Context())
	defer stop()
	s, err := NewService(ctx, ServiceConfig{Store: store.OpenFile(path), Units: 4, LeaseTTL: time.Minute, RetryAfter: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, _, err := s.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	if st.ItemsCachedJournal != 5 {
		t.Fatalf("admission resumed %d journaled items, want 5", st.ItemsCachedJournal)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var (
		mu     sync.Mutex
		leased []int
	)
	w := &Worker{
		Coordinator: srv.URL, ID: "w0", Client: srv.Client(), Poll: 5 * time.Millisecond,
		Exec: toyExec(-1),
		OnUnit: func(u Unit) {
			mu.Lock()
			leased = append(leased, u.ID)
			mu.Unlock()
		},
	}
	werr := make(chan error, 1)
	go func() { werr <- w.Run(t.Context()) }()
	got, verdict := results(t.Context(), s, st.ID)
	stop()
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	if verdict != nil {
		t.Fatal(verdict)
	}

	// With 8 items in 4 units of 2, indices 0..4 done means units 0 and 1
	// are fully covered and must never be executed again.
	for _, id := range leased {
		if id == 0 || id == 1 {
			t.Errorf("fully journaled unit %d was re-executed", id)
		}
	}
	if got != toyWant(n) {
		t.Errorf("resumed batch output:\n got: %q\nwant: %q", got, toyWant(n))
	}
	if row := s.Status().Batches[0]; row.ItemsExecuted != 3 {
		t.Errorf("resumed batch executed %d items, want 3", row.ItemsExecuted)
	}
	// And the journal alone now reassembles the complete output.
	all, err := journal.Replay(path, journal.Header{Kind: b.Kind(), BatchSHA256: hash, N: n})
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	for _, e := range all {
		full.Write(e.Line)
		full.WriteByte('\n')
	}
	if full.String() != toyWant(n) {
		t.Errorf("journal reassembly:\n got: %q\nwant: %q", full.String(), toyWant(n))
	}
}

// TestStatus checks the observability probe after a completed run: the
// batch's progress counters, the per-worker accounting, and a positive
// observed rate with no ETA (nothing remains).
func TestStatus(t *testing.T) {
	s, srv, id, stop := batchService(t, toyBatch{5}, ServiceConfig{Units: 2})
	if _, verdict, werr := drive(t, s, srv, id, stop, 1, toyExec(-1)); verdict != nil || werr != nil {
		t.Fatalf("verdict %v, workers %v", verdict, werr)
	}
	st := getStatus(t, srv)
	if len(st.Batches) != 1 {
		t.Fatalf("status = %+v", st)
	}
	if b := st.Batches[0]; b.Kind != "toy" || b.N != 5 || b.ItemsDone != 5 || b.ItemsCachedJournal != 0 ||
		b.UnitsTotal != 2 || b.UnitsDone != 2 || b.UnitsLeased != 0 || b.State != BatchDone {
		t.Errorf("batch row = %+v", b)
	}
	if st.ItemsPerSec <= 0 {
		t.Errorf("completed run must report a positive rate, got %v", st.ItemsPerSec)
	}
	if st.ETAMS != 0 || st.QueueDepth != 0 {
		t.Errorf("completed run must omit the ETA and queue nothing: %+v", st)
	}
	if len(st.InFlight) != 0 {
		t.Errorf("completed run has in-flight units: %+v", st.InFlight)
	}
	if len(st.Workers) != 1 || st.Workers[0].ID != "w0" ||
		st.Workers[0].UnitsDone != 2 || st.Workers[0].ItemsDone != 5 || !st.Workers[0].Live {
		t.Errorf("workers = %+v", st.Workers)
	}
}

// fakeClock is a mutable obs.Clock for pinning the service's derived
// status arithmetic.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) clock() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// getStatus scrapes GET /v1/status.
func getStatus(t *testing.T, srv *httptest.Server) ServiceStatus {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ServiceStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// postToyResult reports one toy unit's lines over raw HTTP, optionally
// with the exec_ms timing parameter (execMS < 0 omits it).
func postToyResult(t *testing.T, srv *httptest.Server, worker string, u Unit, execMS int64) {
	t.Helper()
	var lines []string
	for i := u.Range.Lo; i < u.Range.Hi; i++ {
		lines = append(lines, fmt.Sprintf(`{"i":%d}`, i))
	}
	target := fmt.Sprintf("%s/v1/result?worker=%s&batch=%s&unit=%d", srv.URL, worker, u.Batch, u.ID)
	if execMS >= 0 {
		target += fmt.Sprintf("&exec_ms=%d", execMS)
	}
	resp, err := srv.Client().Post(target, "application/x-ndjson", strings.NewReader(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result for unit %d rejected: %s", u.ID, resp.Status)
	}
}

// TestStatusMidRun is the acceptance test for the operator probe: it
// drives a run over raw HTTP under a fake clock, scraping /v1/status and
// /metrics mid-run, and pins the derived fields — throughput, ETA,
// per-worker liveness and current unit, in-flight lease ages, and the
// straggler flag — plus their monotone progression as units complete.
func TestStatusMidRun(t *testing.T) {
	fc := &fakeClock{now: time.Unix(1000, 0)}
	s, srv, id, _ := batchService(t, toyBatch{8}, ServiceConfig{Units: 4, Clock: fc.clock})

	// w0 executes unit 0 in one simulated second.
	lease := leaseRaw(t, srv, "w0")
	if lease.Unit == nil || lease.Unit.ID != 0 || lease.Unit.Batch != id {
		t.Fatalf("lease = %+v", lease)
	}
	fc.advance(time.Second)
	postToyResult(t, srv, "w0", *lease.Unit, 1000)

	st := getStatus(t, srv)
	if st.Batches[0].ItemsDone != 2 || st.ElapsedMS != 1000 {
		t.Fatalf("after unit 0: %+v", st)
	}
	if st.ItemsPerSec != 2 {
		t.Errorf("rate = %v, want 2 items/s (2 items in 1s)", st.ItemsPerSec)
	}
	if st.ETAMS != 3000 {
		t.Errorf("eta = %dms, want 3000 (6 remaining at 2/s)", st.ETAMS)
	}
	if st.UnitMeanMS != 1000 {
		t.Errorf("unit mean = %vms, want 1000", st.UnitMeanMS)
	}
	if len(st.Workers) != 1 || st.Workers[0].LastSeenMS != 0 || !st.Workers[0].Live || st.Workers[0].CurrentUnit != nil {
		t.Errorf("workers after unit 0 = %+v", st.Workers)
	}
	firstDone := st.Batches[0].ItemsDone

	// w0 finishes units 1 and 2 at the same pace; the exec-time baseline
	// now has stragglerMinSamples observations of ~1000ms each.
	for i := 0; i < 2; i++ {
		lease = leaseRaw(t, srv, "w0")
		if lease.Unit == nil {
			t.Fatal("no unit leased")
		}
		fc.advance(time.Second)
		postToyResult(t, srv, "w0", *lease.Unit, 1000)
	}

	// w1 leases the last unit and goes quiet for five simulated seconds —
	// five times the mean unit time.
	lease = leaseRaw(t, srv, "w1")
	if lease.Unit == nil {
		t.Fatal("w1 got no unit")
	}
	slow := *lease.Unit
	fc.advance(5 * time.Second)

	st = getStatus(t, srv)
	row := st.Batches[0]
	if row.ItemsDone < firstDone {
		t.Errorf("items_done went backwards: %d -> %d", firstDone, row.ItemsDone)
	}
	if row.ItemsDone != 6 || row.UnitsLeased != 1 {
		t.Fatalf("mid-run status = %+v", st)
	}
	if len(st.InFlight) != 1 {
		t.Fatalf("in-flight = %+v", st.InFlight)
	}
	fl := st.InFlight[0]
	if fl.Batch != id || fl.Unit != slow.ID || fl.Worker != "w1" || fl.Items != 2 || fl.LeaseAgeMS != 5000 {
		t.Errorf("in-flight unit = %+v", fl)
	}
	if !fl.Straggler {
		t.Error("a 5000ms lease against a 1000ms unit mean must flag as straggler")
	}
	var w0, w1 *WorkerStatus
	for i := range st.Workers {
		switch st.Workers[i].ID {
		case "w0":
			w0 = &st.Workers[i]
		case "w1":
			w1 = &st.Workers[i]
		}
	}
	if w0 == nil || w1 == nil {
		t.Fatalf("workers = %+v", st.Workers)
	}
	if w0.UnitsDone != 3 || w0.ItemsDone != 6 || w0.LastSeenMS != 5000 || !w0.Live || w0.CurrentUnit != nil {
		t.Errorf("w0 = %+v", *w0)
	}
	if w1.LastSeenMS != 5000 || !w1.Live || w1.CurrentUnit == nil || *w1.CurrentUnit != slow.ID {
		t.Errorf("w1 = %+v", *w1)
	}

	// The same state through the Prometheus endpoint.
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content type = %q", ct)
	}
	for _, want := range []string{
		"dist_queue_depth 1",
		`dist_batches{state="running"} 1`,
		`dist_store_items{source="executed"} 6`,
		"dist_service_workers_live 2",
		"dist_service_items_per_second 0.75",
		`dist_unit_exec_seconds_count{kind="toy"} 3`,
		`dist_unit_exec_seconds_sum{kind="toy"} 3`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}

	// The straggler finally reports; the run completes and the probe
	// settles monotone at done.
	postToyResult(t, srv, "w1", slow, 800)
	st = getStatus(t, srv)
	row = st.Batches[0]
	if row.ItemsDone != 8 || row.UnitsDone != 4 || row.UnitsLeased != 0 || row.State != BatchDone ||
		st.ETAMS != 0 || len(st.InFlight) != 0 {
		t.Errorf("final status = %+v", st)
	}
	if got, verdict := results(t.Context(), s, id); verdict != nil || got != toyWant(8) {
		t.Errorf("instrumented run output (verdict %v):\n got: %q\nwant: %q", verdict, got, toyWant(8))
	}
}

// TestStatusExecFallback checks the timing fallback for workers that do
// not report exec_ms: the lease age stands in, so UnitMeanMS still
// populates against an old fleet.
func TestStatusExecFallback(t *testing.T) {
	fc := &fakeClock{now: time.Unix(1000, 0)}
	_, srv, _, _ := batchService(t, toyBatch{4}, ServiceConfig{Units: 2, Clock: fc.clock})
	for i := 0; i < 2; i++ {
		lease := leaseRaw(t, srv, "w0")
		if lease.Unit == nil {
			t.Fatal("no unit leased")
		}
		fc.advance(2 * time.Second)
		postToyResult(t, srv, "w0", *lease.Unit, -1) // no exec_ms
	}
	st := getStatus(t, srv)
	if st.UnitMeanMS != 2000 {
		t.Errorf("lease-age fallback mean = %vms, want 2000", st.UnitMeanMS)
	}
	if st.Batches[0].State != BatchDone {
		t.Errorf("batch state %s, want done", st.Batches[0].State)
	}
}

// TestResultRefusesHostileExecMS pins the exec_ms rule: a value that is
// not a finite number of milliseconds from 0 to maxExecMS answers 400
// naming exec_ms and records nothing, so /v1/status keeps decoding. An
// infinite mean would make encoding/json refuse the status body.
func TestResultRefusesHostileExecMS(t *testing.T) {
	fc := &fakeClock{now: time.Unix(1000, 0)}
	_, srv, _, _ := batchService(t, toyBatch{2}, ServiceConfig{Units: 1, Clock: fc.clock})
	lease := leaseRaw(t, srv, "w0")
	if lease.Unit == nil {
		t.Fatal("no unit leased")
	}
	for _, v := range []string{"Inf", "1e300", "-1", "NaN", "soon"} {
		target := fmt.Sprintf("%s/v1/result?worker=w0&batch=%s&unit=0&exec_ms=%s", srv.URL, lease.Unit.Batch, v)
		resp, err := srv.Client().Post(target, "application/x-ndjson", strings.NewReader("{\"i\":0}\n{\"i\":1}\n"))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "exec_ms") {
			t.Errorf("exec_ms=%s: HTTP %d %s, want 400 naming exec_ms", v, resp.StatusCode, msg)
		}
		if st := getStatus(t, srv); st.Batches[0].ItemsDone != 0 || st.UnitMeanMS != 0 {
			t.Errorf("exec_ms=%s: refused result changed the batch: %+v", v, st)
		}
	}
}

// TestRefusedRequestsRegisterNoWorker pins that a request answered 400
// changes no worker state: heartbeats, failure reports and results for
// an unknown batch or unit, or with no worker ID, leave the worker table
// — and the batch — as they were.
func TestRefusedRequestsRegisterNoWorker(t *testing.T) {
	fc := &fakeClock{now: time.Unix(1000, 0)}
	s, srv, id, _ := batchService(t, toyBatch{2}, ServiceConfig{Units: 1, Clock: fc.clock})
	leaseRaw(t, srv, "w0")
	before := s.Status()
	for _, tc := range []struct{ path, body string }{
		{"/v1/heartbeat", `{"worker":"ghost-heartbeat","batch":"nope","unit":0}`},
		{"/v1/heartbeat", `{"batch":"` + id + `","unit":0}`},
		{"/v1/fail", `{"worker":"ghost-fail","batch":"nope","unit":0,"error":"x"}`},
		{"/v1/fail", `{"batch":"` + id + `","unit":0,"error":"x"}`},
		{"/v1/result?worker=ghost-result&batch=nope&unit=0", "{}\n"},
		{"/v1/result?worker=ghost-unit&batch=" + id + "&unit=7", "{}\n"},
		{"/v1/result?worker=ghost-lines&batch=" + id + "&unit=0", "{}\n"},
	} {
		resp, err := srv.Client().Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: HTTP %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
	}
	after := s.Status()
	if !reflect.DeepEqual(after.Workers, before.Workers) {
		t.Errorf("refused requests changed the workers:\n%+v\n->\n%+v", before.Workers, after.Workers)
	}
	if after.Batches[0].State != before.Batches[0].State {
		t.Errorf("refused requests moved the batch from %s to %s", before.Batches[0].State, after.Batches[0].State)
	}
}

// TestUnitFailsAfterRepeatedLeaseExpiry pins the poison-pill guard: a
// unit whose lease expires maxLeaseExpiries times with no result — a unit
// that kills every worker it reaches — fails its batch with an error
// naming the unit and the count. The lease that finds the last expiry
// hands out nothing of the batch, and the unit's heartbeats bounce.
func TestUnitFailsAfterRepeatedLeaseExpiry(t *testing.T) {
	fc := &fakeClock{now: time.Unix(1000, 0)}
	s, srv, id, _ := batchService(t, toyBatch{2}, ServiceConfig{Units: 1, LeaseTTL: time.Second, Clock: fc.clock})
	var unit *Unit
	for i := 0; i < maxLeaseExpiries; i++ {
		lease := leaseRaw(t, srv, fmt.Sprintf("w%d", i))
		if lease.Unit == nil || lease.Unit.ID != 0 {
			t.Fatalf("lease %d = %+v, want unit 0 again", i, lease)
		}
		unit = lease.Unit
		fc.advance(2 * time.Second) // the worker dies: no heartbeat, no result
	}
	if lease := leaseRaw(t, srv, "w-next"); lease.Unit != nil {
		t.Fatalf("lease after %d expiries handed out unit %+v", maxLeaseExpiries, *lease.Unit)
	}
	want := fmt.Sprintf("unit 0 lease expired %d times with no result", maxLeaseExpiries)
	st := s.Status().Batches[0]
	if st.State != BatchFailed || st.Error != want {
		t.Fatalf("batch = %+v, want failed with %q", st, want)
	}
	if _, err := results(t.Context(), s, id); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Results = %v, want an error naming %q", err, want)
	}
	hb := fmt.Sprintf(`{"worker":"w%d","batch":%q,"unit":%d}`, maxLeaseExpiries-1, id, unit.ID)
	resp, err := srv.Client().Post(srv.URL+"/v1/heartbeat", "application/json", strings.NewReader(hb))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("heartbeat for the failed unit: HTTP %d, want 409", resp.StatusCode)
	}
}

// leaseRaw takes a lease over plain HTTP, bypassing the Worker loop.
func leaseRaw(t *testing.T, srv *httptest.Server, worker string) LeaseResponse {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+"/v1/lease", "application/json",
		strings.NewReader(`{"worker":"`+worker+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lease LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	return lease
}

// TestExperimentsSpec checks the experiment-grid glue without paying for a
// real evaluation: unknown IDs fail batch construction, and the units the
// service leases carry the right registry slice.
func TestExperimentsSpec(t *testing.T) {
	if _, err := exp.NewBatch([]string{"fig1", "no-such-artifact"}, exp.NewEnv()); err == nil ||
		!strings.Contains(err.Error(), "no-such-artifact") {
		t.Fatalf("unknown id must fail batch construction, got %v", err)
	}
	ids := []string{"fig1", "fig2", "tab-l1"}
	b, err := exp.NewBatch(ids, exp.NewEnv())
	if err != nil {
		t.Fatal(err)
	}
	_, srv, _, _ := batchService(t, b, ServiceConfig{Units: 3})
	for k, want := range ids {
		lease := leaseRaw(t, srv, "w0")
		if lease.Unit == nil || lease.Unit.Kind != exp.WorkKind || lease.Unit.Range != (sweep.Range{Lo: k, Hi: k + 1}) {
			t.Fatalf("lease %d = %+v", k, lease)
		}
		var p struct {
			IDs []string `json:"ids"`
		}
		if err := json.Unmarshal(lease.Unit.Payload, &p); err != nil {
			t.Fatal(err)
		}
		if len(p.IDs) != 1 || p.IDs[0] != want {
			t.Fatalf("unit %d payload ids = %v, want [%s]", k, p.IDs, want)
		}
	}
}

// TestRegistryExecutorRejectsUnknownKind pins the registry check: a unit
// of an unregistered kind is refused with the registered kind list.
func TestRegistryExecutorRejectsUnknownKind(t *testing.T) {
	_, err := RegistryExecutor(1, nil)(t.Context(), Unit{Kind: "toy", Payload: []byte(`{}`)})
	if err == nil || !strings.Contains(err.Error(), `"toy"`) ||
		!strings.Contains(err.Error(), scenario.JournalKind) {
		t.Fatalf("unknown kind must be refused with the registered list, got %v", err)
	}
}

// TestRegistryExecutorRangeMismatch pins the payload/range sanity check: a
// unit whose payload carries a different item count than its range is
// refused before any work runs.
func TestRegistryExecutorRangeMismatch(t *testing.T) {
	b := testBatch(t, 2)
	payload, err := b.MarshalRange(sweep.Range{Lo: 0, Hi: 2})
	if err != nil {
		t.Fatal(err)
	}
	u := Unit{Kind: scenario.JournalKind, Payload: payload, Range: sweep.Range{Lo: 0, Hi: 3}}
	if _, err := RegistryExecutor(1, nil)(t.Context(), u); err == nil ||
		!strings.Contains(err.Error(), "range wants 3") {
		t.Fatalf("range mismatch must be refused, got %v", err)
	}
}

// TestRequestBodyCaps sends an over-cap body to every endpoint that reads
// one and expects 413 with the usual error body; the service then
// completes a normal batch. Control bodies are sent for real (1 MiB + 1,
// read through the cap); submission and result bodies declare their
// over-cap length and are refused before a byte is read.
func TestRequestBodyCaps(t *testing.T) {
	s, srv, id, stop := batchService(t, toyBatch{4}, ServiceConfig{Units: 2})
	for _, tc := range []struct {
		path    string
		limit   int64
		declare bool
	}{
		{"/v1/lease", maxControlBody, false},
		{"/v1/heartbeat", maxControlBody, false},
		{"/v1/fail", maxControlBody, false},
		{"/v1/batches", maxResultBody, true},
		{"/v1/result?worker=w&batch=" + id + "&unit=0", maxResultBody, true},
	} {
		// A JSON string one byte too long to fit: the body is a single
		// well-formed value, so only the cap can refuse it.
		body := io.MultiReader(strings.NewReader(`"`),
			io.LimitReader(repeatReader('x'), tc.limit-1), strings.NewReader(`"`))
		req := httptest.NewRequest(http.MethodPost, tc.path, body)
		req.ContentLength = -1
		if tc.declare {
			req.ContentLength = tc.limit + 1
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		var e struct {
			Error string `json:"error"`
		}
		if rec.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
			t.Errorf("POST %s over the cap: %d %q, want 413 with an error body", tc.path, rec.Code, rec.Body.String())
		}
	}
	got, verdict, werr := drive(t, s, srv, id, stop, 1, toyExec(-1))
	if verdict != nil || werr != nil || got != toyWant(4) {
		t.Errorf("batch after over-cap requests: verdict %v, workers %v, output %q", verdict, werr, got)
	}
}

// TestOverCapResultFailsBatch checks a unit whose result body is over the
// cap fails its batch: the lines are deterministic, so every worker the
// unit is re-leased to would hit the same 413 and the batch would never
// end.
func TestOverCapResultFailsBatch(t *testing.T) {
	s, srv, id, _ := batchService(t, toyBatch{4}, ServiceConfig{Units: 2})
	lease := leaseRaw(t, srv, "w0")
	if lease.Unit == nil {
		t.Fatalf("lease = %+v", lease)
	}
	path := fmt.Sprintf("/v1/result?worker=w0&batch=%s&unit=%d", id, lease.Unit.ID)
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"i":0}`))
	req.ContentLength = maxResultBody + 1
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap result: %d %q, want 413", rec.Code, rec.Body.String())
	}
	if st := s.Status().Batches[0]; st.State != BatchFailed {
		t.Fatalf("batch after an over-cap result: %+v, want failed", st)
	}
	limit := fmt.Sprintf("%d-byte cap", maxResultBody)
	if _, err := results(t.Context(), s, id); err == nil || !strings.Contains(err.Error(), limit) {
		t.Errorf("Results = %v, want an error naming the %s", err, limit)
	}
}

// repeatReader is an endless stream of one byte.
type repeatReader byte

func (r repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// TestResultRefusesNonCanonicalLines pins that a worker line is accepted
// only in the form the journal stores it: a spaced line, or a compact
// one with a raw '&', would stream live as posted but replay re-encoded
// once the batch is terminal. Either answers 400 naming the unit and the
// line, records nothing, and leaves the worker table as it was.
func TestResultRefusesNonCanonicalLines(t *testing.T) {
	fc := &fakeClock{now: time.Unix(1000, 0)}
	s, srv, _, _ := batchService(t, toyBatch{1}, ServiceConfig{Units: 1, Clock: fc.clock})
	lease := leaseRaw(t, srv, "w0")
	if lease.Unit == nil {
		t.Fatal("no unit leased")
	}
	before := s.Status()
	for _, line := range []string{`{"i": 0, "s":"a&b"}`, `{"i":0,"s":"a&b"}`} {
		target := fmt.Sprintf("%s/v1/result?worker=w1&batch=%s&unit=0", srv.URL, lease.Unit.Batch)
		resp, err := srv.Client().Post(target, "application/x-ndjson", strings.NewReader(line+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "unit 0 result line 0") {
			t.Errorf("%s: HTTP %d %s, want 400 naming unit 0 line 0", line, resp.StatusCode, msg)
		}
	}
	after := s.Status()
	if !reflect.DeepEqual(after.Workers, before.Workers) {
		t.Errorf("refused results changed the workers:\n%+v\n->\n%+v", before.Workers, after.Workers)
	}
	if b := after.Batches[0]; b.ItemsDone != 0 || b.UnitsDone != 0 {
		t.Errorf("refused results recorded into the batch: %+v", b)
	}
}
