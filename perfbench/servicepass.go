package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/dist/store"
	"repro/internal/grid"
	"repro/internal/sweep"
	"repro/internal/work"
)

// The service's lease timing. A short TTL makes workers heartbeat during
// long units; a short retry keeps an idle worker's poll from adding to the
// measured phase times.
const (
	leaseTTL   = 300 * time.Millisecond
	retryAfter = 20 * time.Millisecond
)

// resubmitsPerPass is how many restarted services each pass resubmits A
// to; one resubmission is too short to time steadily on its own.
const resubmitsPerPass = 5

// svcStats is one three-phase service pass.
type svcStats struct {
	submit, overlap time.Duration
	resubmits       []time.Duration
	latMS           []float64 // per executed item, all phases
	heapPeakMB      float64
	attempted       int
	failed          int
	// Store attribution from Service.Status: the journal hits of one
	// resubmission, the index adoptions of B, and every item executed.
	hitsJournal, hitsIndex, executed uint64
	wire                             *wireStats // traced passes only
}

// svcPass is the client and fleet side of one service pass.
type svcPass struct {
	client *http.Client
	wire   *wireStats
	heap   *heapSampler

	mu     sync.Mutex
	latMS  []float64
	unitMS []float64
}

// instance is one running service over the pass's store directory.
type instance struct {
	svc    *dist.Service
	srv    *httptest.Server
	cancel context.CancelFunc
}

func startService(ctx context.Context, dir string, units int) (*instance, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	svc, err := dist.NewService(sctx, dist.ServiceConfig{Store: st, Units: units, LeaseTTL: leaseTTL, RetryAfter: retryAfter})
	if err != nil {
		cancel()
		st.Close()
		return nil, err
	}
	return &instance{svc: svc, srv: httptest.NewServer(svc.Handler()), cancel: cancel}, nil
}

func (in *instance) stop() error {
	in.cancel()
	in.srv.Close()
	return in.svc.Close()
}

// servicePass runs the three phases over a fresh store:
//
//  1. submit A to a service with two workers and stream its results;
//  2. resubmit A to each of resubmitsPerPass freshly restarted services
//     over the same store: admission replays A's journal and no item
//     executes;
//  3. submit B to a restarted service with two workers: the half that
//     overlaps A is adopted through the store's item index.
//
// Every streamed byte is compared with work.Collect of the same batch.
func servicePass(ctx context.Context, w workload, e *expanded, dir string, traced bool) (svcStats, error) {
	sdir, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return svcStats{}, err
	}
	defer os.RemoveAll(sdir)
	transport := &http.Transport{MaxIdleConnsPerHost: 2 * workers}
	defer transport.CloseIdleConnections()
	p := &svcPass{client: &http.Client{Transport: transport}, heap: newHeapSampler()}
	if traced {
		p.wire = &wireStats{}
		p.client.Transport = &timedTransport{base: transport, s: p.wire}
	}
	debug.FreeOSMemory()
	var st svcStats
	nA, nB := e.svcA.Len(), e.svcB.Len()
	overlap, err := overlapCount(e.svcA, e.svcB)
	if err != nil {
		return st, err
	}

	phase := func(b *grid.Batch, ref *reference, fleet bool, check func(dist.ServiceStatus) bool) (time.Duration, dist.ServiceStatus, error) {
		in, err := startService(ctx, sdir, (b.Len()+w.unitPoints-1)/w.unitPoints)
		if err != nil {
			return 0, dist.ServiceStatus{}, err
		}
		d, bad, err := p.phase(ctx, in, b, ref, fleet)
		status := in.svc.Status()
		if serr := in.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return 0, status, err
		}
		if !check(status) {
			bad = b.Len()
		}
		st.attempted += b.Len()
		st.failed += bad
		return d, status, nil
	}

	submit, s, err := phase(e.svcA, e.refA, true, func(s dist.ServiceStatus) bool {
		return s.Store.ItemsExecuted == uint64(nA)
	})
	if err != nil {
		return st, fmt.Errorf("submit: %w", err)
	}
	st.submit = submit
	st.executed += s.Store.ItemsExecuted
	for r := 0; r < resubmitsPerPass; r++ {
		d, s, err := phase(e.svcA, e.refA, false, func(s dist.ServiceStatus) bool {
			return s.Store.ItemsExecuted == 0 && s.Store.HitsJournal == uint64(nA)
		})
		if err != nil {
			return st, fmt.Errorf("resubmit: %w", err)
		}
		st.resubmits = append(st.resubmits, d)
		st.hitsJournal = s.Store.HitsJournal
	}
	overlapTime, s, err := phase(e.svcB, e.refB, true, func(s dist.ServiceStatus) bool {
		return s.Store.HitsIndex == uint64(overlap) && s.Store.ItemsExecuted == uint64(nB-overlap)
	})
	if err != nil {
		return st, fmt.Errorf("overlap: %w", err)
	}
	st.overlap = overlapTime
	st.hitsIndex = s.Store.HitsIndex
	st.executed += s.Store.ItemsExecuted
	st.latMS = p.latMS
	st.heapPeakMB = p.heap.peakMB()
	if traced {
		p.wire.unitMS = p.unitMS
		st.wire = p.wire
	}
	return st, nil
}

// overlapCount is how many of b's points a already holds, by item key —
// what the store's index should adopt.
func overlapCount(a, b *grid.Batch) (int, error) {
	keys := make(map[string]bool, a.Len())
	for i := 0; i < a.Len(); i++ {
		k, err := a.ItemKey(i)
		if err != nil {
			return 0, err
		}
		keys[k] = true
	}
	n := 0
	for i := 0; i < b.Len(); i++ {
		k, err := b.ItemKey(i)
		if err != nil {
			return 0, err
		}
		if keys[k] {
			n++
		}
	}
	return n, nil
}

// phase submits b to the service, streams its results and compares them
// with ref; with fleet set, two workers start once the batch is
// submitted and stop once its last result byte has arrived. It returns the
// time from the POST to the last byte and the count of wrong or missing
// lines.
func (p *svcPass) phase(ctx context.Context, in *instance, b *grid.Batch, ref *reference, fleet bool) (time.Duration, int, error) {
	wctx, stopFleet := context.WithCancel(ctx)
	defer stopFleet()
	submitted := make(chan struct{})
	var (
		elapsed time.Duration
		bad     int
	)
	n := 1
	if fleet {
		n += workers
	}
	err := sweep.EachCtx(ctx, n, n, func(ctx context.Context, k int) error {
		if k > 0 {
			select {
			case <-submitted:
			case <-wctx.Done():
				return nil
			}
			wk := &dist.Worker{
				Coordinator: in.srv.URL,
				ID:          "w" + strconv.Itoa(k),
				Exec:        p.exec,
				Client:      p.client,
				Poll:        retryAfter,
			}
			if err := wk.Run(wctx); err != nil && wctx.Err() == nil {
				return err
			}
			return nil
		}
		defer stopFleet()
		start := clock.Now()
		id, err := p.submit(ctx, in.srv.URL, b)
		close(submitted)
		if err != nil {
			return err
		}
		if bad, err = p.stream(ctx, in.srv.URL, id, ref); err != nil {
			return err
		}
		elapsed = clock.Now().Sub(start)
		return nil
	})
	return elapsed, bad, err
}

// submit POSTs the batch and returns its ID.
func (p *svcPass) submit(ctx context.Context, base string, b *grid.Batch) (string, error) {
	payload, err := b.MarshalRange(sweep.Range{Lo: 0, Hi: b.Len()})
	if err != nil {
		return "", err
	}
	body, err := json.Marshal(map[string]any{"kind": b.Kind(), "payload": payload})
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/batches", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var st dist.BatchStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("submit: %s: %w", resp.Status, err)
	}
	if resp.StatusCode/100 != 2 || st.ID == "" {
		return "", fmt.Errorf("submit: %s", resp.Status)
	}
	return st.ID, nil
}

// stream reads the batch's results to the last byte, comparing each line
// with the reference, and returns the count of wrong or missing lines.
func (p *svcPass) stream(ctx context.Context, base, id string, ref *reference) (int, error) {
	start := clock.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/batches/"+id+"/results", nil)
	if err != nil {
		return 0, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("results: %s", resp.Status)
	}
	r := bufio.NewReaderSize(resp.Body, 1<<16)
	k, bad := 0, 0
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			if k >= len(ref.lines) || !bytes.Equal(bytes.TrimSuffix(line, []byte{'\n'}), ref.lines[k]) {
				bad++
			}
			k++
			p.heap.read()
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	p.heap.read()
	if k < len(ref.lines) {
		bad += len(ref.lines) - k
	}
	if p.wire != nil {
		p.wire.add(&p.wire.streamS, clock.Now().Sub(start).Seconds())
	}
	return bad, nil
}

// exec is dist.RegistryExecutor(1) with per-item and per-unit timing: it
// rebuilds the unit's batch from the work registry and collects it one
// item at a time.
func (p *svcPass) exec(ctx context.Context, u dist.Unit) ([][]byte, error) {
	start := clock.Now()
	b, err := work.Unmarshal(u.Kind, u.Payload)
	if err != nil {
		return nil, fmt.Errorf("unit %d: %w", u.ID, err)
	}
	if got, want := b.Len(), u.Range.Len(); got != want {
		return nil, fmt.Errorf("unit %d payload carries %d items, range wants %d", u.ID, got, want)
	}
	tb := newTimedBatch(b)
	lines, err := work.Collect(ctx, tb, work.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	d := clock.Now().Sub(start)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.unitMS = append(p.unitMS, millis(d))
	for _, l := range tb.lat {
		p.latMS = append(p.latMS, millis(l))
	}
	return lines, nil
}

// wireStats are per-endpoint client-side timings of a traced pass.
type wireStats struct {
	mu                          sync.Mutex
	submitMS, leaseMS, resultMS []float64
	streamS, unitMS             []float64
	leases, emptyLeases, beats  int
}

func (s *wireStats) add(xs *[]float64, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	*xs = append(*xs, v)
}

// timedTransport times each request to the service by endpoint, and
// counts leases that came back without a unit.
type timedTransport struct {
	base http.RoundTripper
	s    *wireStats
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := clock.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	path := req.URL.Path
	switch {
	case path == "/v1/lease":
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(data))
		if rerr != nil {
			return nil, rerr
		}
		var lease struct {
			Unit json.RawMessage `json:"unit"`
		}
		empty := json.Unmarshal(data, &lease) != nil || len(lease.Unit) == 0 || string(lease.Unit) == "null"
		d := millis(clock.Now().Sub(start))
		t.s.mu.Lock()
		t.s.leaseMS = append(t.s.leaseMS, d)
		t.s.leases++
		if empty {
			t.s.emptyLeases++
		}
		t.s.mu.Unlock()
	case path == "/v1/result":
		t.s.add(&t.s.resultMS, millis(clock.Now().Sub(start)))
	case path == "/v1/heartbeat":
		t.s.mu.Lock()
		t.s.beats++
		t.s.mu.Unlock()
	case path == "/v1/batches" && req.Method == http.MethodPost:
		t.s.add(&t.s.submitMS, millis(clock.Now().Sub(start)))
	case strings.HasSuffix(path, "/results"):
		// Timed to the last byte by the reader.
	}
	return resp, nil
}
