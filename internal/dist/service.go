package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/dist/journal"
	"repro/internal/dist/store"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/work"
)

// BatchState is a service batch's lifecycle state.
type BatchState string

const (
	// BatchQueued: admitted, no unit leased yet.
	BatchQueued BatchState = "queued"
	// BatchRunning: at least one unit has been leased.
	BatchRunning BatchState = "running"
	// BatchDone: every item has a result line (executed or cached).
	BatchDone BatchState = "done"
	// BatchFailed: a unit failed deterministically; the remaining items
	// will never run (re-running deterministic work only fails again).
	BatchFailed BatchState = "failed"
	// BatchCancelled: an operator deleted the batch. Results already in
	// flight are still journaled (they are cache value), but no new units
	// are leased and the state never leaves cancelled.
	BatchCancelled BatchState = "cancelled"
)

// Service metric names — the dist_* families Handler exposes at GET
// /metrics. The gauges are read-time views of the service's own state
// (evaluated at scrape, no hot-path cost); the histogram observes one
// value per completed unit.
const (
	// MetricUnitExecSeconds is the per-unit execution-time histogram,
	// labeled (kind) — the worker-reported exec_ms when present, lease
	// age otherwise.
	MetricUnitExecSeconds = "dist_unit_exec_seconds"
	// MetricQueueDepth gauges batches currently queued or running — with
	// MetricServiceETA, the autoscaling signal: scale workers up while
	// either stays high.
	MetricQueueDepth = "dist_queue_depth"
	// MetricBatches gauges batches by lifecycle state, labeled (state).
	MetricBatches = "dist_batches"
	// MetricStoreItems counts completed items by how they were satisfied,
	// labeled (source): "journal" (the batch's own prior journal),
	// "index" (adopted from an overlapping batch via the item index), or
	// "executed" (actually run by the fleet). The store hit rate is
	// (journal+index) / total.
	MetricStoreItems = "dist_store_items"
	// MetricServiceWorkersLive gauges workers heard from within one lease
	// TTL, across all batches.
	MetricServiceWorkersLive = "dist_service_workers_live"
	// MetricServiceItemsPerSec gauges the fleet-wide completion rate of
	// executed items.
	MetricServiceItemsPerSec = "dist_service_items_per_second"
	// MetricServiceETA gauges the seconds of executed work remaining at
	// the current rate, 0 while idle or rateless.
	MetricServiceETA = "dist_service_eta_seconds"
)

// stragglerMinSamples is how many units must have completed before the
// straggler heuristic has a baseline worth flagging against.
const stragglerMinSamples = 3

// Request body caps. Control bodies (lease, heartbeat, fail) are a few
// dozen bytes — the cap matches the one Worker.do applies to responses.
// Submissions and result uploads scale with the batch but are bounded by
// it; the cap only stops a runaway client from exhausting memory. An
// over-cap body answers 413.
const (
	maxControlBody = 1 << 20
	maxResultBody  = 256 << 20
)

// ServiceConfig tunes a Service.
type ServiceConfig struct {
	// Store is the content-addressed result store backing every batch
	// (required): per-batch journals, the per-item index, and the spec
	// records a restarted service re-queues from.
	Store *store.Store
	// Units is the number of work units each admitted batch splits into
	// (0 = GOMAXPROCS, capped at the batch's item count). More units than
	// workers gives finer re-lease granularity when a worker dies; fewer
	// amortizes per-unit HTTP overhead.
	Units int
	// LeaseTTL is how long a worker may hold a unit without heartbeating
	// before it is handed to someone else (0 = 30s).
	LeaseTTL time.Duration
	// RetryAfter is the backoff hint returned when every pending unit is
	// leased (0 = 200ms).
	RetryAfter time.Duration
	// Metrics is the registry the service's families register into (nil =
	// private registry); Handler serves it at GET /metrics.
	Metrics *obs.Registry
	// Clock is the service's time source (nil = time.Now): leases,
	// liveness, throughput, and straggler detection all read it. Tests
	// inject a fake to pin the derived-status arithmetic.
	Clock obs.Clock
	// Logf, when non-nil, receives operational log lines (restores,
	// admissions, batch completions).
	Logf func(format string, args ...any)
}

// Unit lease lifecycle. A unit never leaves done — results are
// idempotent — and returns from leased to pending when its lease expires.
const (
	unitPending = iota
	unitLeased
	unitDone
)

// maxLeaseExpiries is how many times one unit's lease may expire with no
// result before the unit fails its batch: a unit that kills every worker
// would otherwise be re-leased forever, taking the fleet down in turn.
const maxLeaseExpiries = 3

// workerState is the service's per-worker bookkeeping, keyed by the
// worker's self-assigned ID.
type workerState struct {
	lastSeen  time.Time
	unitsDone int
	itemsDone int
}

// unitState is the lease bookkeeping for one unit.
type unitState struct {
	unit     Unit
	state    int
	worker   string
	deadline time.Time
	leasedAt time.Time // current lease grant; zero while pending/done
	expiries int       // leases that expired with no result
}

// batchRun is the in-memory state of one admitted batch.
type batchRun struct {
	id   string
	kind string
	hash string
	n    int

	units     []*unitState
	lines     [][]byte // per input index; nil once terminal (store has them)
	done      []uint64 // completed-index bitset, kept after terminal
	doneCount int
	remaining int
	unitsDone int

	cachedJournal int // items satisfied by the batch's own store journal
	cachedIndex   int // items adopted from overlapping batches
	executed      int // items completed by the fleet while this service ran

	state     BatchState
	errMsg    string
	handle    *store.Handle // nil once closed (done, or service shutdown)
	submitted time.Time
	started   time.Time // first lease; zero while queued
	ended     time.Time // terminal transition; zero while active
}

// active reports whether the batch still wants work.
func (b *batchRun) active() bool { return b.state == BatchQueued || b.state == BatchRunning }

// terminal is the complement of active.
func (b *batchRun) terminal() bool { return !b.active() }

// markDone sets index i's completed bit, reporting whether it was new.
func (b *batchRun) markDone(i int) bool {
	if b.done[i/64]&(1<<(i%64)) != 0 {
		return false
	}
	b.done[i/64] |= 1 << (i % 64)
	b.doneCount++
	return true
}

// isDone reads index i's completed bit.
func (b *batchRun) isDone(i int) bool { return b.done[i/64]&(1<<(i%64)) != 0 }

// leased reports whether u is out on a live lease: leased, not expired,
// and in a batch that still wants work — a terminal batch's leases are
// forfeit (their heartbeats bounce).
func (b *batchRun) leased(u *unitState, now time.Time) bool {
	return b.active() && u.state == unitLeased && !now.After(u.deadline)
}

// Service is the coordinator: a queue of concurrent batches multiplexed
// over one worker fleet, backed by a content-addressed result store. A
// one-shot `sweepd serve` is a Service holding its single batch over a
// single-journal store (store.OpenFile). Units carry a batch ID and
// workers echo it, so one fleet drains heterogeneous batches with no
// per-kind (or per-batch) worker code. Batches are
// leased in submission order: the oldest batch with pending units wins,
// and later batches start as soon as every earlier unit is at least
// leased, so the fleet never idles while work exists.
//
// Every completed line lands in the store before it is streamable;
// admission replays the store first (own journal, then the per-item
// index), so resubmitting an identical batch — or one overlapping prior
// batches — executes only the genuinely new items. The served bytes are
// identical either way, because cached lines are the recorded output of
// the same deterministic items.
type Service struct {
	store *store.Store
	units int
	ttl   time.Duration
	retry time.Duration
	clock obs.Clock
	logf  func(format string, args ...any)
	reg   *obs.Registry
	start time.Time
	ctx   context.Context // the service's lifetime

	mu      sync.Mutex
	cond    *sync.Cond // broadcast: line completed or state changed
	byID    map[string]*batchRun
	order   []*batchRun // submission order
	workers map[string]*workerState

	execSumMS float64
	execCount int

	hitsJournal   *obs.Counter
	hitsIndex     *obs.Counter
	itemsExecuted *obs.Counter
}

// NewService creates a multi-batch service over a store. The context
// governs the service's lifetime: cancelling it turns every lease
// response into done (workers exit) and unblocks result streams.
// Call Restore to re-queue the store's batches, then serve Handler.
func NewService(ctx context.Context, cfg ServiceConfig) (*Service, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("dist: service needs a store")
	}
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	retry := cfg.RetryAfter
	if retry <= 0 {
		retry = 200 * time.Millisecond
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Service{
		store:   cfg.Store,
		units:   cfg.Units,
		ttl:     ttl,
		retry:   retry,
		clock:   cfg.Clock,
		logf:    logf,
		reg:     reg,
		ctx:     ctx,
		byID:    make(map[string]*batchRun),
		workers: make(map[string]*workerState),
	}
	s.cond = sync.NewCond(&s.mu)
	s.start = s.clock.Now()
	// Result streams block on cond while their batch runs; wake them when
	// the service winds down so they return instead of hanging.
	context.AfterFunc(ctx, func() { s.cond.Broadcast() })
	s.registerMetrics()
	return s, nil
}

// registerMetrics binds the service families: read-time gauges over
// service state plus the store-attribution counters.
func (s *Service) registerMetrics() {
	s.reg.Gauge(MetricQueueDepth, "batches queued or running").WithFunc(func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		depth := 0
		for _, br := range s.order {
			if br.active() {
				depth++
			}
		}
		return float64(depth)
	})
	states := []BatchState{BatchQueued, BatchRunning, BatchDone, BatchFailed, BatchCancelled}
	vec := s.reg.Gauge(MetricBatches, "batches by lifecycle state", "state")
	for _, st := range states {
		st := st
		vec.WithFunc(func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for _, br := range s.order {
				if br.state == st {
					n++
				}
			}
			return float64(n)
		}, string(st))
	}
	items := s.reg.Counter(MetricStoreItems, "completed items by satisfaction source", "source")
	s.hitsJournal = items.With("journal")
	s.hitsIndex = items.With("index")
	s.itemsExecuted = items.With("executed")
	s.reg.Gauge(MetricServiceWorkersLive, "workers heard from within one lease TTL").WithFunc(func() float64 {
		now := s.clock.Now()
		s.mu.Lock()
		defer s.mu.Unlock()
		live := 0
		for _, w := range s.workers {
			if now.Sub(w.lastSeen) <= s.ttl {
				live++
			}
		}
		return float64(live)
	})
	s.reg.Gauge(MetricServiceItemsPerSec, "fleet-wide completion rate of executed items").WithFunc(func() float64 {
		now := s.clock.Now()
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.rateLocked(now)
	})
	s.reg.Gauge(MetricServiceETA, "seconds of executed work remaining at the current rate").WithFunc(func() float64 {
		now := s.clock.Now()
		s.mu.Lock()
		defer s.mu.Unlock()
		rate := s.rateLocked(now)
		if rate <= 0 {
			return 0
		}
		remaining := 0
		for _, br := range s.order {
			if br.active() {
				remaining += br.remaining
			}
		}
		return float64(remaining) / rate
	})
}

// rateLocked is the fleet-wide executed-items completion rate. Callers
// hold mu.
func (s *Service) rateLocked(now time.Time) float64 {
	executed := 0
	for _, br := range s.order {
		executed += br.executed
	}
	if secs := now.Sub(s.start).Seconds(); secs > 0 && executed > 0 {
		return float64(executed) / secs
	}
	return 0
}

// Restore re-admits every batch the store has recorded, in original
// admission order — the crash-recovery path: a restarted service picks
// up exactly the queue it died with, with all completed items already
// cached. It returns how many batches came back still needing work and
// how many were already complete; records that no longer rebuild (an
// unregistered kind, or an experiments record written before units
// carried their scale) are logged and skipped, never fatal.
func (s *Service) Restore() (active, complete int) {
	for _, rec := range s.store.Batches() {
		b, err := work.Unmarshal(rec.Kind, rec.Payload)
		if err != nil {
			s.logf("restore %s: %v (skipped)", rec.ID(), err)
			continue
		}
		st, _, err := s.Submit(b)
		if err != nil {
			s.logf("restore %s: %v (skipped)", rec.ID(), err)
			continue
		}
		if st.State == BatchDone {
			complete++
		} else {
			active++
		}
	}
	return active, complete
}

// Submit admits a batch: store admission (journal resume + per-item
// index fill), unit sharding, and queueing. Submitting a batch the
// service already holds returns its current status unchanged (created
// false) — batch identity is content identity, so a resubmission IS the
// original batch. A batch whose every line is already in the store is
// born done and never leases a unit.
func (s *Service) Submit(b work.Batch) (BatchStatus, bool, error) {
	if b.Len() <= 0 {
		return BatchStatus{}, false, fmt.Errorf("dist: batch has no items")
	}
	hash, err := b.Hash()
	if err != nil {
		return BatchStatus{}, false, err
	}
	id := store.BatchID(b.Kind(), hash)
	now := s.clock.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	if br, ok := s.byID[id]; ok {
		return s.batchStatusLocked(br, now), false, nil
	}

	h, err := s.store.Admit(b)
	if err != nil {
		return BatchStatus{}, false, err
	}
	br := &batchRun{
		id:            id,
		kind:          b.Kind(),
		hash:          hash,
		n:             b.Len(),
		lines:         make([][]byte, b.Len()),
		done:          make([]uint64, (b.Len()+63)/64),
		remaining:     b.Len(),
		cachedJournal: h.HitsJournal,
		cachedIndex:   h.HitsIndex,
		state:         BatchQueued,
		handle:        h,
		submitted:     now,
	}
	for _, e := range h.Done {
		br.lines[e.I] = e.Line
		br.markDone(e.I)
		br.remaining--
	}
	for _, r := range sweep.Shards(b.Len(), s.units) {
		payload, err := b.MarshalRange(r)
		if err != nil {
			h.Close()
			return BatchStatus{}, false, fmt.Errorf("dist: rendering unit payload for [%d, %d): %w", r.Lo, r.Hi, err)
		}
		u := &unitState{unit: Unit{ID: len(br.units), Range: r, Kind: b.Kind(), Payload: payload, Batch: id}}
		allDone := true
		for i := r.Lo; i < r.Hi; i++ {
			if !br.isDone(i) {
				allDone = false
				break
			}
		}
		if allDone {
			u.state = unitDone
			br.unitsDone++
		}
		br.units = append(br.units, u)
	}
	s.hitsJournal.Add(uint64(h.HitsJournal))
	s.hitsIndex.Add(uint64(h.HitsIndex))
	s.byID[id] = br
	s.order = append(s.order, br)
	if br.remaining == 0 {
		s.finishLocked(br, BatchDone, "", now)
		s.logf("batch %s: complete from store (%d journal, %d index)", id, h.HitsJournal, h.HitsIndex)
	} else {
		s.logf("batch %s: queued, %d/%d items cached", id, br.doneCount, br.n)
	}
	s.cond.Broadcast()
	return s.batchStatusLocked(br, now), true, nil
}

// Cancel moves an active batch to cancelled: no further units are
// leased, in-flight heartbeats bounce (workers abandon the execution),
// and late results are journaled but change nothing. Cancelling a
// terminal batch is an idempotent no-op reporting the current state.
func (s *Service) Cancel(id string) (BatchStatus, bool) {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	br, ok := s.byID[id]
	if !ok {
		return BatchStatus{}, false
	}
	if br.active() {
		s.finishLocked(br, BatchCancelled, "", now)
		s.logf("batch %s: cancelled with %d/%d items done", id, br.doneCount, br.n)
	}
	return s.batchStatusLocked(br, now), true
}

// finishLocked moves a batch to a terminal state: the in-memory lines
// are dropped (the store journal has every completed one — result
// streams switch to it), and a done batch's journal handle closes.
// Failed and cancelled batches keep the handle open to absorb late
// results as cache entries. Callers hold mu.
func (s *Service) finishLocked(br *batchRun, st BatchState, errMsg string, now time.Time) {
	br.state = st
	br.errMsg = errMsg
	br.ended = now
	br.lines = nil
	if st == BatchDone && br.handle != nil {
		if err := br.handle.Close(); err != nil {
			s.logf("batch %s: closing journal: %v", br.id, err)
		}
		br.handle = nil
	}
	s.cond.Broadcast()
}

// Close closes every open batch journal and the store — call after the
// HTTP server has stopped.
func (s *Service) Close() error {
	s.mu.Lock()
	for _, br := range s.order {
		if br.handle != nil {
			br.handle.Close()
			br.handle = nil
		}
	}
	s.mu.Unlock()
	return s.store.Close()
}

// Handler returns the service's HTTP API: the batch-scoped worker
// protocol, the batch lifecycle endpoints, the status probe, and the
// metrics exposition. One handler, one RequireToken gate.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", s.handleLease)
	mux.HandleFunc("POST /v1/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /v1/result", s.handleResult)
	mux.HandleFunc("POST /v1/fail", s.handleFail)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.Handle("GET /metrics", obs.Handler(s.reg))
	mux.HandleFunc("POST /v1/batches", s.handleSubmit)
	mux.HandleFunc("GET /v1/batches", s.handleList)
	mux.HandleFunc("GET /v1/batches/{id}", s.handleBatch)
	mux.HandleFunc("DELETE /v1/batches/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/batches/{id}/results", s.handleResults)
	return mux
}

// noteWorkerLocked updates a worker's liveness bookkeeping. Callers hold
// mu.
func (s *Service) noteWorkerLocked(id string, now time.Time) *workerState {
	w := s.workers[id]
	if w == nil {
		w = &workerState{}
		s.workers[id] = w
	}
	w.lastSeen = now
	return w
}

func (s *Service) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	const bad = "lease request needs a worker id"
	if !decodeBody(w, r, maxControlBody, &req, bad) {
		return
	}
	if req.Worker == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": bad})
		return
	}
	if s.ctx.Err() != nil {
		writeJSON(w, http.StatusOK, LeaseResponse{Done: true})
		return
	}
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.noteWorkerLocked(req.Worker, now)
	for _, br := range s.order {
		if !br.active() || br.remaining == 0 {
			continue
		}
		for _, u := range br.units {
			if u.state == unitLeased && now.After(u.deadline) {
				u.state = unitPending
				u.worker = ""
				u.leasedAt = time.Time{}
				if u.expiries++; u.expiries >= maxLeaseExpiries {
					msg := fmt.Sprintf("unit %d lease expired %d times with no result", u.unit.ID, u.expiries)
					s.finishLocked(br, BatchFailed, msg, now)
					s.logf("batch %s: failed: %s", br.id, msg)
					break
				}
			}
			if u.state != unitPending {
				continue
			}
			u.state = unitLeased
			u.worker = req.Worker
			u.deadline = now.Add(s.ttl)
			u.leasedAt = now
			if br.state == BatchQueued {
				br.state = BatchRunning
				br.started = now
			}
			writeJSON(w, http.StatusOK, LeaseResponse{Unit: &u.unit, LeaseTTLMS: s.ttl.Milliseconds()})
			return
		}
	}
	// No pending unit anywhere: the fleet is either fully busy or idle.
	// Workers poll rather than exit — the next submission needs them.
	writeJSON(w, http.StatusOK, LeaseResponse{RetryAfterMS: s.retry.Milliseconds()})
}

func (s *Service) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeBody(w, r, maxControlBody, &req, "malformed heartbeat") {
		return
	}
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.noteWorkerLocked(req.Worker, now)
	br, ok := s.byID[req.Batch]
	if !ok || req.Unit < 0 || req.Unit >= len(br.units) {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "unknown unit"})
		return
	}
	u := br.units[req.Unit]
	// A terminal batch's leases are all forfeit — bouncing the heartbeat
	// makes the worker abandon the execution and lease fresh work.
	if br.terminal() || u.state != unitLeased || u.worker != req.Worker {
		writeJSON(w, http.StatusConflict, map[string]string{"error": "lease lost"})
		return
	}
	u.deadline = now.Add(s.ttl)
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleResult ingests one unit's NDJSON lines, batch-scoped. Results
// are idempotent per index (first arrival wins) and accepted even from a
// worker whose lease has expired — the work is deterministic, so a late
// line is as good as the re-leased copy — and even for failed or
// cancelled batches, where the lines no longer change the batch's fate
// but are journaled as store cache for the next overlapping submission.
// The optional exec_ms query parameter carries the worker's measured
// unit execution time; without it the lease age stands in, so the timing
// stats degrade rather than vanish against old workers. A body over the
// cap from the unit's lease holder fails the batch before the 413: a
// unit's lines are deterministic, so no worker could ever upload them.
func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	worker := q.Get("worker")
	batch := q.Get("batch")
	unitID, err := strconv.Atoi(q.Get("unit"))
	if worker == "" || batch == "" || err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "result needs ?worker=ID&batch=ID&unit=N"})
		return
	}
	execMS, execErr := strconv.ParseFloat(q.Get("exec_ms"), 64)
	haveExec := execErr == nil && execMS >= 0
	body, code, readErr := readBody(w, r, maxResultBody)
	if readErr != nil && code != http.StatusRequestEntityTooLarge {
		writeJSON(w, code, map[string]string{"error": readErr.Error()})
		return
	}

	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	ws := s.noteWorkerLocked(worker, now)
	br, ok := s.byID[batch]
	var u *unitState
	if ok && unitID >= 0 && unitID < len(br.units) {
		u = br.units[unitID]
	}
	if readErr != nil {
		if u != nil && br.active() && u.state == unitLeased && u.worker == worker {
			msg := fmt.Sprintf("unit %d result body is over the %d-byte cap", unitID, maxResultBody)
			s.finishLocked(br, BatchFailed, msg, now)
			s.logf("batch %s: failed: %s", br.id, msg)
		}
		writeJSON(w, code, map[string]string{"error": readErr.Error()})
		return
	}
	if u == nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "unknown unit"})
		return
	}
	lines := splitNDJSON(body)
	if got, want := len(lines), u.unit.Range.Len(); got != want {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("unit %d wants %d result lines, got %d", unitID, want, got),
		})
		return
	}
	for k, line := range lines {
		if !json.Valid(line) {
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": fmt.Sprintf("unit %d result line %d is not JSON", unitID, k),
			})
			return
		}
	}
	stored := 0
	for k, line := range lines {
		idx := u.unit.Range.Lo + k
		if br.isDone(idx) {
			continue // idempotent: first arrival won
		}
		if br.handle == nil {
			continue // done batch: everything already journaled
		}
		if err := s.recordLocked(br, idx, line); err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		stored++
	}
	ws.itemsDone += stored
	if u.state != unitDone {
		u.state = unitDone
		br.unitsDone++
		ws.unitsDone++
		// One timing observation per completed unit: the worker's own
		// measurement when reported, its lease age otherwise (a late
		// result from an expired lease has neither — skip it).
		switch {
		case haveExec:
			s.recordUnitExecLocked(br.kind, execMS)
		case u.worker == worker && !u.leasedAt.IsZero():
			s.recordUnitExecLocked(br.kind, float64(now.Sub(u.leasedAt))/float64(time.Millisecond))
		}
		u.worker = ""
		u.leasedAt = time.Time{}
	}
	if br.active() && br.remaining == 0 {
		s.finishLocked(br, BatchDone, "", now)
		s.logf("batch %s: done (%d executed, %d cached)", br.id, br.executed, br.cachedJournal+br.cachedIndex)
	}
	s.cond.Broadcast()
	writeJSON(w, http.StatusOK, map[string]bool{"accepted": true})
}

// recordLocked stores one freshly executed line: journal first (the
// store is the source of truth a restart replays), then the in-memory
// state streams read. Callers hold mu and have checked !isDone(idx).
func (s *Service) recordLocked(br *batchRun, idx int, line []byte) error {
	if err := br.handle.Record(idx, line); err != nil {
		return fmt.Errorf("dist: store append failed: %w", err)
	}
	if br.lines != nil {
		br.lines[idx] = line
	}
	br.markDone(idx)
	if br.remaining > 0 {
		br.remaining--
	}
	br.executed++
	s.itemsExecuted.Inc()
	return nil
}

// recordUnitExecLocked folds one completed unit's execution time into
// the service-wide straggler baseline and the per-kind histogram.
// Callers hold mu.
func (s *Service) recordUnitExecLocked(kind string, ms float64) {
	s.execSumMS += ms
	s.execCount++
	s.reg.Histogram(MetricUnitExecSeconds, "per-unit execution time in seconds", nil, "kind").
		With(kind).Observe(ms / 1000)
}

func (s *Service) handleFail(w http.ResponseWriter, r *http.Request) {
	var req failRequest
	if !decodeBody(w, r, maxControlBody, &req, "malformed failure report") {
		return
	}
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.noteWorkerLocked(req.Worker, now)
	br, ok := s.byID[req.Batch]
	if !ok {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "unknown batch"})
		return
	}
	if br.active() {
		msg := fmt.Sprintf("unit %d failed on worker %s: %s", req.Unit, req.Worker, req.Error)
		s.finishLocked(br, BatchFailed, msg, now)
		s.logf("batch %s: failed: %s", br.id, msg)
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Kind    string          `json:"kind"`
		Payload json.RawMessage `json:"payload"`
	}
	const bad = `submission needs {"kind":..., "payload":...}`
	if !decodeBody(w, r, maxResultBody, &req, bad) {
		return
	}
	if req.Kind == "" || len(req.Payload) == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": bad})
		return
	}
	b, err := work.Unmarshal(req.Kind, req.Payload)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	st, created, err := s.Submit(b)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, st)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := struct {
		Batches []BatchStatus `json:"batches"`
	}{Batches: make([]BatchStatus, 0, len(s.order))}
	for _, br := range s.order {
		out.Batches = append(out.Batches, s.batchStatusLocked(br, now))
	}
	writeJSON(w, http.StatusOK, out)
}

// lookup returns the admitted batch with the given ID.
func (s *Service) lookup(id string) (*batchRun, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	br, ok := s.byID[id]
	return br, ok
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	now := s.clock.Now()
	s.mu.Lock()
	br, ok := s.byID[r.PathValue("id")]
	var st BatchStatus
	if ok {
		st = s.batchStatusLocked(br, now)
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown batch"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown batch"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// Results calls yield with batch id's result lines in input order, each
// as soon as the ordered prefix through it is complete: from memory while
// the batch runs, from one replay of its store journal once it is
// terminal — cached or fresh, the bytes are identical to a sequential
// run. A failed or cancelled batch's lines end at its first gap: those
// indices will never complete. The return is the batch's verdict once
// its lines run out — nil for a done batch, the failure of a failed one,
// an error wrapping context.Canceled for a cancelled one — or the error
// of ctx (or of the service's own context, should it end first). A yield
// error stops the walk and is returned as is.
func (s *Service) Results(ctx context.Context, id string, yield func(i int, line []byte) error) error {
	br, ok := s.lookup(id)
	if !ok {
		return fmt.Errorf("dist: unknown batch %s", id)
	}
	// Readers park on cond while waiting for the next ordered line; wake
	// them if ctx ends so they notice and return.
	stop := context.AfterFunc(ctx, s.cond.Broadcast)
	defer stop()

	// Once terminal, lines come from one store replay walked forward
	// alongside i; an empty replay ends the walk, so nil means unread.
	var stored []journal.Entry
	for i := 0; i < br.n; i++ {
		var line []byte
		s.mu.Lock()
		for {
			if err := ctx.Err(); err != nil {
				s.mu.Unlock()
				return err
			}
			if err := s.ctx.Err(); err != nil {
				s.mu.Unlock()
				return err
			}
			if br.lines == nil { // terminal: switch to the store journal
				break
			}
			if l := br.lines[i]; l != nil {
				line = l
				break
			}
			s.cond.Wait()
		}
		s.mu.Unlock()
		if line == nil {
			if stored == nil {
				var err error
				stored, err = s.store.Replay(journal.Header{Kind: br.kind, BatchSHA256: br.hash, N: br.n})
				if err != nil {
					return err
				}
			}
			for len(stored) > 0 && stored[0].I < i {
				stored = stored[1:]
			}
			if len(stored) == 0 || stored[0].I != i {
				return s.verdict(br, i)
			}
			line = stored[0].Line
		}
		if err := yield(i, line); err != nil {
			return err
		}
	}
	return s.verdict(br, br.n)
}

// verdict is the outcome Results reports for a batch whose lines ran out
// at index gap (br.n when every line was there): its failure, its
// cancellation, or — for a done batch — nil, unless its journal lost a
// line.
func (s *Service) verdict(br *batchRun, gap int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case br.state == BatchFailed:
		return fmt.Errorf("dist: batch %s failed: %s", br.id, br.errMsg)
	case br.state == BatchCancelled:
		return fmt.Errorf("dist: batch %s cancelled: %w", br.id, context.Canceled)
	case gap < br.n:
		return fmt.Errorf("dist: batch %s: journal lacks line %d", br.id, gap)
	}
	return nil
}

// handleResults streams a batch's result lines (Results) as input-ordered
// NDJSON, flushed per line, so a client following a running batch sees
// results live.
func (s *Service) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.lookup(id); !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown batch"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	// The verdict has no place in a stream already under way: the stream
	// simply ends, and the batch status says why.
	_ = s.Results(r.Context(), id, func(_ int, line []byte) error {
		// Two writes, not append(line, '\n'): the line may share backing
		// storage with other lines (result-body subslices), and appending
		// in place would be a write into shared memory.
		if _, err := w.Write(line); err != nil {
			return err
		}
		if _, err := w.Write([]byte{'\n'}); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Status())
}

// BatchStatus is one batch's row in the service status and the response
// of the batch lifecycle endpoints.
type BatchStatus struct {
	ID    string     `json:"id"`
	Kind  string     `json:"kind"`
	N     int        `json:"n"`
	State BatchState `json:"state"`
	// ItemsDone counts completed items from any source; the three
	// attribution fields break it down (journal = the batch's own prior
	// journal, index = adopted from overlapping batches, executed = run
	// by the fleet while this service was up).
	ItemsDone          int `json:"items_done"`
	ItemsCachedJournal int `json:"items_cached_journal"`
	ItemsCachedIndex   int `json:"items_cached_index"`
	ItemsExecuted      int `json:"items_executed"`
	UnitsTotal         int `json:"units_total"`
	UnitsDone          int `json:"units_done"`
	UnitsLeased        int `json:"units_leased"`
	// SubmittedAgoMS is how long ago the batch was admitted.
	SubmittedAgoMS int64 `json:"submitted_ago_ms"`
	// Error carries the failure message of a failed batch.
	Error string `json:"error,omitempty"`
}

// StoreStatus summarizes the result store inside ServiceStatus.
type StoreStatus struct {
	// Batches is the number of batches the store has ever admitted;
	// Items is the number of distinct per-item keys it can share.
	Batches int `json:"batches"`
	Items   int `json:"items"`
	// HitsJournal / HitsIndex / ItemsExecuted attribute every completed
	// item since this service started (the counter totals behind
	// dist_store_items).
	HitsJournal   uint64 `json:"hits_journal"`
	HitsIndex     uint64 `json:"hits_index"`
	ItemsExecuted uint64 `json:"items_executed"`
}

// ServiceStatus is the GET /v1/status snapshot of a service: the queue,
// every batch's progress, fleet liveness, the units out on lease, and
// store attribution. QueueDepth and ETAMS together are the autoscaling
// signal — scale the fleet up while either stays high, down when both
// sit at zero.
type ServiceStatus struct {
	QueueDepth int `json:"queue_depth"`
	// ElapsedMS is the wall time since the service started; ItemsPerSec
	// the fleet-wide executed-item completion rate; ETAMS extrapolates
	// that rate over every active batch's remaining items.
	ElapsedMS   int64   `json:"elapsed_ms"`
	ItemsPerSec float64 `json:"items_per_sec"`
	ETAMS       int64   `json:"eta_ms,omitempty"`
	// UnitMeanMS is the mean execution time of completed units across
	// batches — the straggler baseline.
	UnitMeanMS float64       `json:"unit_mean_ms,omitempty"`
	Batches    []BatchStatus `json:"batches"`
	// Workers lists every worker that ever contacted this service, sorted
	// by ID.
	Workers []WorkerStatus `json:"workers,omitempty"`
	// InFlight lists the units out on a live lease, by batch submission
	// order then unit ID.
	InFlight []UnitStatus `json:"in_flight,omitempty"`
	Store    StoreStatus  `json:"store"`
}

// Status assembles the service snapshot — exported so the serving
// process can read it for manifests without going through HTTP.
func (s *Service) Status() ServiceStatus {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ServiceStatus{
		ElapsedMS: now.Sub(s.start).Milliseconds(),
		Batches:   make([]BatchStatus, 0, len(s.order)),
		Store: StoreStatus{
			Batches:       len(s.store.Batches()),
			Items:         s.store.Items(),
			HitsJournal:   s.hitsJournal.Value(),
			HitsIndex:     s.hitsIndex.Value(),
			ItemsExecuted: s.itemsExecuted.Value(),
		},
	}
	st.ItemsPerSec = s.rateLocked(now)
	remaining := 0
	for _, br := range s.order {
		st.Batches = append(st.Batches, s.batchStatusLocked(br, now))
		if br.active() {
			st.QueueDepth++
			remaining += br.remaining
		}
	}
	if st.ItemsPerSec > 0 && remaining > 0 {
		st.ETAMS = int64(float64(remaining) / st.ItemsPerSec * 1000)
	}
	if s.execCount > 0 {
		st.UnitMeanMS = s.execSumMS / float64(s.execCount)
	}
	currentUnit := make(map[string]int)
	for _, br := range s.order {
		for _, u := range br.units {
			if !br.leased(u, now) {
				continue
			}
			currentUnit[u.worker] = u.unit.ID
			age := now.Sub(u.leasedAt).Milliseconds()
			st.InFlight = append(st.InFlight, UnitStatus{
				Batch:      br.id,
				Unit:       u.unit.ID,
				Worker:     u.worker,
				Items:      u.unit.Range.Len(),
				LeaseAgeMS: age,
				Straggler: s.execCount >= stragglerMinSamples &&
					float64(age) > 2*st.UnitMeanMS,
			})
		}
	}
	ids := make([]string, 0, len(s.workers))
	for id := range s.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ws := s.workers[id]
		row := WorkerStatus{
			ID:         id,
			UnitsDone:  ws.unitsDone,
			ItemsDone:  ws.itemsDone,
			LastSeenMS: now.Sub(ws.lastSeen).Milliseconds(),
			Live:       now.Sub(ws.lastSeen) <= s.ttl,
		}
		if unit, ok := currentUnit[id]; ok {
			row.CurrentUnit = &unit
		}
		st.Workers = append(st.Workers, row)
	}
	return st
}

// batchStatusLocked renders one batch's status row. Callers hold mu.
func (s *Service) batchStatusLocked(br *batchRun, now time.Time) BatchStatus {
	st := BatchStatus{
		ID:                 br.id,
		Kind:               br.kind,
		N:                  br.n,
		State:              br.state,
		ItemsDone:          br.doneCount,
		ItemsCachedJournal: br.cachedJournal,
		ItemsCachedIndex:   br.cachedIndex,
		ItemsExecuted:      br.executed,
		UnitsTotal:         len(br.units),
		UnitsDone:          br.unitsDone,
		SubmittedAgoMS:     now.Sub(br.submitted).Milliseconds(),
		Error:              br.errMsg,
	}
	for _, u := range br.units {
		if br.leased(u, now) {
			st.UnitsLeased++
		}
	}
	return st
}

// writeJSON renders one protocol response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// readBody drains a request body of at most limit bytes. On failure it
// returns the status to answer with: 413 when the body is over the cap
// (without reading it when the declared length already is), 400 when it
// cannot be read.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, int, error) {
	if r.ContentLength > limit {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body of %d bytes is over the %d-byte cap", r.ContentLength, limit)
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		return nil, code, fmt.Errorf("reading request body: %v", err)
	}
	return body, http.StatusOK, nil
}

// decodeBody reads a JSON request body of at most limit bytes into v. It
// answers the request itself and reports false when the body is over the
// cap (413) or does not decode (400 with msg).
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any, msg string) bool {
	body, code, err := readBody(w, r, limit)
	if err != nil {
		writeJSON(w, code, map[string]string{"error": err.Error()})
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": msg})
		return false
	}
	return true
}

// splitNDJSON splits a result body into its non-empty lines.
func splitNDJSON(body []byte) [][]byte {
	var lines [][]byte
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		lines = append(lines, line)
	}
	return lines
}
