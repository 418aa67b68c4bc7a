package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist/store"
	"repro/internal/grid"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/work"
)

// startService boots a service over a store directory and its HTTP
// server, cleaning both up with the test.
func startService(t *testing.T, ctx context.Context, dir string, cfg ServiceConfig) (*Service, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = time.Minute
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = 5 * time.Millisecond
	}
	s, err := NewService(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

// serviceWorker runs one in-process worker against the service until its
// context ends (the service never reports done while alive — workers
// poll for the next batch). A worker that exits over a deterministic
// unit failure is restarted, the way a supervised fleet member would be;
// the failed batch is terminal by then, so the restarted worker only
// ever leases other batches' units.
func serviceWorker(ctx context.Context, srv *httptest.Server, id string, exec Executor) {
	for ctx.Err() == nil {
		w := &Worker{
			Coordinator: srv.URL,
			ID:          id,
			Exec:        exec,
			Client:      srv.Client(),
			Poll:        5 * time.Millisecond,
		}
		_ = w.Run(ctx)
	}
}

// submitHTTP posts a batch through the public API and returns the status
// row plus the HTTP status code.
func submitHTTP(t *testing.T, srv *httptest.Server, b work.Batch) (BatchStatus, int) {
	t.Helper()
	payload, err := b.MarshalRange(sweep.Range{Lo: 0, Hi: b.Len()})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"kind": b.Kind(), "payload": json.RawMessage(payload)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st BatchStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st, resp.StatusCode
}

// resultsHTTP streams a batch's NDJSON results to completion.
func resultsHTTP(t *testing.T, srv *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/v1/batches/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: HTTP %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// waitBatchState polls until the batch reaches a terminal state or the
// deadline passes.
func waitBatchState(t *testing.T, s *Service, id string, want BatchState) BatchStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		for _, st := range s.Status().Batches {
			if st.ID == id && st.State == want {
				return st
			}
			if st.ID == id && st.State != want && st.State != BatchQueued && st.State != BatchRunning {
				t.Fatalf("batch %s reached %s, want %s", id, st.State, want)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch %s never reached %s", id, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sequentialNDJSON renders the reference output of a batch.
func sequentialNDJSON(t *testing.T, b scenario.Batch) []byte {
	t.Helper()
	var want bytes.Buffer
	if err := work.Run(t.Context(), b, work.Options{Workers: 1}, &want); err != nil {
		t.Fatal(err)
	}
	return want.Bytes()
}

// TestServiceStreamsByteIdenticalResults pins the service's core
// invariant: a batch submitted over HTTP, executed by fleet workers, and
// streamed back from GET /results is byte-identical to the sequential
// run.
func TestServiceStreamsByteIdenticalResults(t *testing.T) {
	b := testBatch(t, 4)
	want := sequentialNDJSON(t, b)

	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	s, srv := startService(t, ctx, t.TempDir(), ServiceConfig{Units: 3})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			serviceWorker(ctx, srv, fmt.Sprintf("w%d", i), RegistryExecutor(1, nil))
		}(i)
	}

	st, code := submitHTTP(t, srv, b)
	if code != http.StatusCreated {
		t.Fatalf("first submission: HTTP %d, want 201", code)
	}
	got := resultsHTTP(t, srv, st.ID)
	if !bytes.Equal(got, want) {
		t.Errorf("service output differs from sequential:\n got: %s\nwant: %s", got, want)
	}
	fin := waitBatchState(t, s, st.ID, BatchDone)
	if fin.ItemsExecuted != b.Len() || fin.ItemsCachedJournal != 0 {
		t.Errorf("fresh batch attribution: executed=%d cachedJournal=%d, want %d/0",
			fin.ItemsExecuted, fin.ItemsCachedJournal, b.Len())
	}
	cancel()
	wg.Wait()
}

// countingExecutor counts executed units before delegating — the probe
// behind the zero-work resubmission guarantee.
func countingExecutor(n *atomic.Int64, inner Executor) Executor {
	return func(ctx context.Context, u Unit) ([][]byte, error) {
		n.Add(1)
		return inner(ctx, u)
	}
}

// TestServiceResubmitServesFromStoreZeroWork is the tentpole equivalence
// test: run a batch to completion, restart the service on the same store
// (fresh process state), resubmit the identical batch while a worker is
// attached and counting — the batch completes with zero units executed,
// zero RunItem calls, and the streamed bytes are identical to the
// sequential run.
func TestServiceResubmitServesFromStoreZeroWork(t *testing.T) {
	b := testBatch(t, 4)
	want := sequentialNDJSON(t, b)
	dir := t.TempDir()

	// First life: execute the batch for real.
	ctx1, cancel1 := context.WithCancel(t.Context())
	s1, srv1 := startService(t, ctx1, dir, ServiceConfig{Units: 3})
	var wg1 sync.WaitGroup
	wg1.Add(1)
	go func() { defer wg1.Done(); serviceWorker(ctx1, srv1, "w0", RegistryExecutor(1, nil)) }()
	st1, _ := submitHTTP(t, srv1, b)
	waitBatchState(t, s1, st1.ID, BatchDone)
	cancel1()
	wg1.Wait()
	srv1.Close()
	s1.Close()

	// Second life: same store, a worker attached and counting executions.
	ctx2, cancel2 := context.WithCancel(t.Context())
	defer cancel2()
	var executed atomic.Int64
	s2, srv2 := startService(t, ctx2, dir, ServiceConfig{Units: 3})
	var wg2 sync.WaitGroup
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		serviceWorker(ctx2, srv2, "w0", countingExecutor(&executed, RegistryExecutor(1, nil)))
	}()

	// Restore re-queues the stored batch — complete, so it is born done.
	active, complete := s2.Restore()
	if active != 0 || complete != 1 {
		t.Fatalf("restore: active=%d complete=%d, want 0/1", active, complete)
	}
	// Resubmitting the identical batch over HTTP is idempotent (200, not
	// 201) and still byte-identical, with every item attributed to the
	// store.
	st2, code := submitHTTP(t, srv2, b)
	if code != http.StatusOK {
		t.Fatalf("resubmission: HTTP %d, want 200", code)
	}
	if st2.State != BatchDone {
		t.Fatalf("resubmitted batch state %s, want done immediately", st2.State)
	}
	if st2.ItemsCachedJournal != b.Len() || st2.ItemsExecuted != 0 {
		t.Fatalf("resubmission attribution: cachedJournal=%d executed=%d, want %d/0",
			st2.ItemsCachedJournal, st2.ItemsExecuted, b.Len())
	}
	got := resultsHTTP(t, srv2, st2.ID)
	if !bytes.Equal(got, want) {
		t.Errorf("cached output differs from sequential:\n got: %s\nwant: %s", got, want)
	}
	if n := executed.Load(); n != 0 {
		t.Errorf("second pass executed %d units, want 0 (RunItem must never be called)", n)
	}
	cancel2()
	wg2.Wait()
}

// TestServiceRestartResumesQueue pins crash recovery: batches queued
// (and partially run) when the service dies are re-queued by Restore and
// complete on the new service, with prior results replayed not re-run.
func TestServiceRestartResumesQueue(t *testing.T) {
	b1, b2 := testBatch(t, 3), testBatch(t, 5)
	dir := t.TempDir()

	// First life: submit both, run nothing (no workers attached).
	ctx1, cancel1 := context.WithCancel(t.Context())
	s1, srv1 := startService(t, ctx1, dir, ServiceConfig{Units: 2})
	st1, _ := submitHTTP(t, srv1, b1)
	st2, _ := submitHTTP(t, srv1, b2)
	cancel1()
	srv1.Close()
	s1.Close()

	// Second life: both come back active and a worker drains the queue.
	ctx2, cancel2 := context.WithCancel(t.Context())
	defer cancel2()
	s2, srv2 := startService(t, ctx2, dir, ServiceConfig{Units: 2})
	active, complete := s2.Restore()
	if active != 2 || complete != 0 {
		t.Fatalf("restore: active=%d complete=%d, want 2/0", active, complete)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); serviceWorker(ctx2, srv2, "w0", RegistryExecutor(1, nil)) }()
	if got, want := resultsHTTP(t, srv2, st1.ID), sequentialNDJSON(t, b1); !bytes.Equal(got, want) {
		t.Errorf("batch 1 after restart differs from sequential")
	}
	if got, want := resultsHTTP(t, srv2, st2.ID), sequentialNDJSON(t, b2); !bytes.Equal(got, want) {
		t.Errorf("batch 2 after restart differs from sequential")
	}
	cancel2()
	wg.Wait()
}

// TestServiceOverlapServedFromIndex pins per-item sharing end to end: a
// second batch overlapping the first on some items executes only the new
// ones; the overlap is adopted through the store's item index.
func TestServiceOverlapServedFromIndex(t *testing.T) {
	// testBatch(t, 3) is a strict prefix of testBatch(t, 5): scenarios
	// s0..s2 coincide, s3..s4 are new — 3 index hits, 2 executions.
	small, big := testBatch(t, 3), testBatch(t, 5)
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	s, srv := startService(t, ctx, t.TempDir(), ServiceConfig{Units: 2})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); serviceWorker(ctx, srv, "w0", RegistryExecutor(1, nil)) }()

	stSmall, _ := submitHTTP(t, srv, small)
	waitBatchState(t, s, stSmall.ID, BatchDone)

	stBig, _ := submitHTTP(t, srv, big)
	if stBig.ItemsCachedIndex != 3 {
		t.Fatalf("overlap admission: %d index hits, want 3", stBig.ItemsCachedIndex)
	}
	got := resultsHTTP(t, srv, stBig.ID)
	if want := sequentialNDJSON(t, big); !bytes.Equal(got, want) {
		t.Errorf("overlapping batch output differs from sequential:\n got: %s\nwant: %s", got, want)
	}
	fin := waitBatchState(t, s, stBig.ID, BatchDone)
	if fin.ItemsExecuted != 2 {
		t.Errorf("overlapping batch executed %d items, want 2", fin.ItemsExecuted)
	}
	cancel()
	wg.Wait()
}

// TestServiceCancelIsolatesBatch pins DELETE semantics: the cancelled
// batch stops leasing and stays cancelled; an unrelated batch on the
// same fleet is untouched; cancelling again (or cancelling a done batch)
// is an idempotent no-op; unknown IDs 404.
func TestServiceCancelIsolatesBatch(t *testing.T) {
	b1, b2 := testBatch(t, 3), testBatch(t, 5)
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	s, srv := startService(t, ctx, t.TempDir(), ServiceConfig{Units: 2})

	st1, _ := submitHTTP(t, srv, b1)
	st2, _ := submitHTTP(t, srv, b2)

	del := func(id string) (BatchStatus, int) {
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/batches/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st BatchStatus
		json.NewDecoder(resp.Body).Decode(&st)
		return st, resp.StatusCode
	}

	if st, code := del(st1.ID); code != http.StatusOK || st.State != BatchCancelled {
		t.Fatalf("cancel: HTTP %d state %s, want 200 cancelled", code, st.State)
	}
	if _, code := del("no-such-batch"); code != http.StatusNotFound {
		t.Fatalf("cancel unknown: HTTP %d, want 404", code)
	}

	// The fleet drains only the surviving batch.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); serviceWorker(ctx, srv, "w0", RegistryExecutor(1, nil)) }()
	waitBatchState(t, s, st2.ID, BatchDone)
	if st, code := del(st1.ID); code != http.StatusOK || st.State != BatchCancelled {
		t.Fatalf("re-cancel: HTTP %d state %s, want 200 cancelled (idempotent)", code, st.State)
	}
	if st, _ := del(st2.ID); st.State != BatchDone {
		t.Fatalf("cancelling a done batch moved it to %s, want done", st.State)
	}
	for _, row := range s.Status().Batches {
		if row.ID == st1.ID && row.ItemsExecuted != 0 {
			t.Errorf("cancelled batch executed %d items", row.ItemsExecuted)
		}
	}
	cancel()
	wg.Wait()
}

// TestServiceFailureIsolatesBatch pins that a deterministic unit failure
// fails its batch — and only its batch; the fleet keeps draining others.
func TestServiceFailureIsolatesBatch(t *testing.T) {
	bad, good := testBatch(t, 3), testBatch(t, 5)
	badHash, err := bad.Hash()
	if err != nil {
		t.Fatal(err)
	}
	badID := store.BatchID(bad.Kind(), badHash)

	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	s, srv := startService(t, ctx, t.TempDir(), ServiceConfig{Units: 2})
	exec := func(ctx context.Context, u Unit) ([][]byte, error) {
		if u.Batch == badID {
			return nil, fmt.Errorf("synthetic deterministic failure")
		}
		return RegistryExecutor(1, nil)(ctx, u)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); serviceWorker(ctx, srv, "w0", exec) }()

	stBad, _ := submitHTTP(t, srv, bad)
	stGood, _ := submitHTTP(t, srv, good)
	fin := waitBatchState(t, s, stBad.ID, BatchFailed)
	if !strings.Contains(fin.Error, "synthetic deterministic failure") {
		t.Errorf("failed batch error %q does not carry the cause", fin.Error)
	}
	waitBatchState(t, s, stGood.ID, BatchDone)
	cancel()
	wg.Wait()
}

// TestServiceRefusesHostileAccesses checks admission bounds the trace
// length: a scenario whose access count would size a multi-terabyte
// profile is answered 400 and never queued, so no worker leases it.
func TestServiceRefusesHostileAccesses(t *testing.T) {
	s, srv := startService(t, t.Context(), t.TempDir(), ServiceConfig{})
	body := `{"kind":"scenario-batch","payload":{"scenarios":[` +
		`{"name":"x","l1_kb":16,"l2_kb":256,"workload":"tpcc","accesses":1099511627776,"fidelity":"analytical"}]}}`
	resp, err := srv.Client().Post(srv.URL+"/v1/batches", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "cap") {
		t.Fatalf("hostile accesses: HTTP %d %s, want 400 naming the cap", resp.StatusCode, msg)
	}
	if st := s.Status(); len(st.Batches) != 0 || st.QueueDepth != 0 {
		t.Errorf("refused batch was queued: %+v", st)
	}
}

// TestServiceRefusesUnrunnableConfigs checks admission refuses what
// cannot run: a cache size that is no cachecfg organization, a size over
// scenario.MaxCacheKB, or negative accesses — in a scenario batch or a
// grid — is answered 400 and never queued, so no worker leases it. A
// batch entry's error names "scenario:" once, before the entry.
func TestServiceRefusesUnrunnableConfigs(t *testing.T) {
	s, srv := startService(t, t.Context(), t.TempDir(), ServiceConfig{})
	for _, tc := range []struct{ kind, payload, want string }{
		{"scenario-batch", `{"scenarios":[{"name":"x","l1_kb":16,"l2_kb":3,"workload":"tpcc"}]}`,
			`{"error":"scenario: batch entry 0: l2_kb 3: cachecfg: size, block and associativity must be powers of two: 3KB/64B/8-way"}`},
		{"scenario-batch", `{"scenarios":[{"name":"x","l1_kb":16,"l2_kb":1048576,"workload":"tpcc","fidelity":"analytical"}]}`,
			`{"error":"scenario: batch entry 0: cache sizes 16/1048576 KB above the cap of 65536 KB"}`},
		{"scenario-batch", `{"scenarios":[{"name":"x","l1_kb":16,"l2_kb":256,"workload":"tpcc","accesses":-5}]}`, "negative"},
		{"grid", `{"grid":{"axes":{"l2_kb":[256,1048576]},"base":{"l1_kb":16,"workload":"tpcc","fidelity":"analytical"}},"range":{"lo":0,"hi":2}}`,
			"grid: axis l2_kb value 2 of 2: scenario: cache sizes 16/1048576 KB above the cap"},
	} {
		body := fmt.Sprintf(`{"kind":%q,"payload":%s}`, tc.kind, tc.payload)
		resp, err := srv.Client().Post(srv.URL+"/v1/batches", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), tc.want) {
			t.Errorf("%s: HTTP %d %s, want 400 naming %q", tc.payload, resp.StatusCode, msg, tc.want)
		}
	}
	if st := s.Status(); len(st.Batches) != 0 || st.QueueDepth != 0 {
		t.Errorf("refused batches were queued: %+v", st)
	}
}

// TestServiceAdmitsPayloadsAsTheCLIsReadThem pins admission to the one
// document rule: a raw POST of examples/scenarios.json, which leaves
// defaults out, gets the batch ID `sweepd submit -f` gives that file
// (Submit of LoadBatch's batch), and a grid Expand refuses answers 400.
func TestServiceAdmitsPayloadsAsTheCLIsReadThem(t *testing.T) {
	s, srv := startService(t, t.Context(), t.TempDir(), ServiceConfig{})
	post := func(kind, payload string) (int, []byte) {
		t.Helper()
		body := fmt.Sprintf(`{"kind":%q,"payload":%s}`, kind, payload)
		resp, err := srv.Client().Post(srv.URL+"/v1/batches", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, msg
	}

	data, err := os.ReadFile("../../examples/scenarios.json")
	if err != nil {
		t.Fatal(err)
	}
	code, msg := post(scenario.JournalKind, string(data))
	var raw BatchStatus
	if code != http.StatusCreated || json.Unmarshal(msg, &raw) != nil {
		t.Fatalf("raw POST: HTTP %d %s, want 201", code, msg)
	}
	b, err := scenario.LoadBatch(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	st, created, err := s.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	if created || st.ID != raw.ID {
		t.Errorf("raw POST admitted %s, but the loaded file is %s (created %v)", raw.ID, st.ID, created)
	}

	colliding := `{"grid":{"name":"g{l1_kb}{l2_kb}","axes":{"l1_kb":[1,16],"l2_kb":[64,4]},"base":{"workload":"tpcc"}},"range":{"lo":0,"hi":4}}`
	if code, msg := post(grid.WorkKind, colliding); code != http.StatusBadRequest || !strings.Contains(string(msg), `both expand to name \"g164\"`) {
		t.Errorf("colliding grid: HTTP %d %s, want 400 naming g164", code, msg)
	}
}

// TestServiceStatusAndMetrics pins the observable surface: queue depth,
// store attribution, and the metric families the operations doc
// catalogues.
func TestServiceStatusAndMetrics(t *testing.T) {
	b := testBatch(t, 3)
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	s, srv := startService(t, ctx, t.TempDir(), ServiceConfig{Units: 2})
	st, _ := submitHTTP(t, srv, b)

	// Queued, nothing running: queue depth 1.
	resp, err := srv.Client().Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var status ServiceStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.QueueDepth != 1 || len(status.Batches) != 1 {
		t.Fatalf("status = %+v, want queue_depth=1 with 1 batch", status)
	}
	if status.Batches[0].State != BatchQueued {
		t.Fatalf("batch state %s, want queued", status.Batches[0].State)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); serviceWorker(ctx, srv, "w0", RegistryExecutor(1, nil)) }()
	waitBatchState(t, s, st.ID, BatchDone)

	// Resubmitting to the same service is idempotent: the existing done
	// batch comes back (200) without touching the store again.
	st2, code := submitHTTP(t, srv, b)
	if code != http.StatusOK || st2.State != BatchDone {
		t.Fatalf("resubmit: HTTP %d state %s, want 200 done", code, st2.State)
	}
	final := s.Status()
	if final.Store.ItemsExecuted != uint64(b.Len()) || final.Store.Items != b.Len() {
		t.Errorf("store attribution = %+v, want %d items, all executed", final.Store, b.Len())
	}
	if final.QueueDepth != 0 {
		t.Errorf("queue depth %d after completion, want 0", final.QueueDepth)
	}

	mresp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	exposition, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		MetricQueueDepth, MetricBatches, MetricStoreItems,
		MetricServiceWorkersLive, MetricServiceItemsPerSec, MetricServiceETA,
		MetricUnitExecSeconds,
	} {
		if !bytes.Contains(exposition, []byte(family)) {
			t.Errorf("metrics exposition lacks family %s", family)
		}
	}
	cancel()
	wg.Wait()
}

// TestResultsStreamLive pins live delivery over HTTP: while one unit of a
// running batch is held, GET .../results already carries the lines of
// the unit before it, and once the held unit completes, the whole body is
// the sequential output.
func TestResultsStreamLive(t *testing.T) {
	s, srv, id, stop := batchService(t, toyBatch{4}, ServiceConfig{Units: 2})
	release := make(chan struct{})
	exec := toyExec(-1)
	held := func(ctx context.Context, u Unit) ([][]byte, error) {
		if u.ID == 1 {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return exec(ctx, u)
	}
	werr := make(chan error, 1)
	go func() { werr <- runWorkers(t.Context(), srv, 2, held) }()

	ctx, cancel := context.WithTimeout(t.Context(), 20*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/batches/"+id+"/results", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("results while unit 1 is held: %v", err)
	}
	defer resp.Body.Close()
	body := bufio.NewReader(resp.Body)
	var got strings.Builder
	for k := 0; k < 2; k++ {
		line, err := body.ReadString('\n')
		if err != nil {
			t.Fatalf("line %d did not arrive while unit 1 was held: %v", k, err)
		}
		got.WriteString(line)
	}
	if st := s.Status().Batches[0]; st.State != BatchRunning || st.ItemsDone != 2 {
		t.Fatalf("unit 1 is not held: %+v", st)
	}
	close(release)
	rest, err := io.ReadAll(body)
	if err != nil {
		t.Fatal(err)
	}
	got.Write(rest)
	if got.String() != toyWant(4) {
		t.Errorf("streamed %q, want %q", got.String(), toyWant(4))
	}
	stop() // leases answer done from here: the workers exit
	if err := <-werr; err != nil {
		t.Fatalf("workers: %v", err)
	}
}
