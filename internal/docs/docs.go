// Package docs renders docs/wire-protocol.md from live protocol
// fixtures: every example request and response in that file is captured
// from a real dist.Service — the same handler cmd/sweepd serves in both
// of its modes — executed in-process against the repository's reference
// scenario fixtures under a fixed clock. The golden test
// (TestWireProtocolDoc) fails whenever the captured exchanges stop
// matching the committed file, so the documentation cannot drift from
// the implementation; `make docs` regenerates it.
package docs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/dist/store"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/work"
)

// docEpoch is the fixed instant every fixture runs at: all elapsed/ago
// fields in the captured responses render as 0, keeping the generated
// file byte-stable across regenerations.
var docEpoch = time.Unix(1700000000, 0).UTC()

// docClock is the injected time source for every fixture coordinator.
func docClock() time.Time { return docEpoch }

// fixtureBatch is the two-scenario workload the examples run: small
// enough to execute during doc generation, real enough that the result
// lines are the genuine scenario NDJSON schema.
const fixtureBatch = `{"scenarios":[
	{"name":"small","l1_kb":16,"l2_kb":256,"workload":"tpcc","accesses":20000},
	{"name":"large","l1_kb":32,"l2_kb":512,"workload":"tpcc","accesses":20000}
]}`

// fixtureDoomed and fixtureUnwanted are two more distinct batches: one
// whose unit fails, one that is cancelled while its unit is out on lease.
const (
	fixtureDoomed = `{"scenarios":[
	{"name":"doomed","l1_kb":16,"l2_kb":512,"workload":"tpcc","accesses":20000}
]}`
	fixtureUnwanted = `{"scenarios":[
	{"name":"unwanted","l1_kb":32,"l2_kb":256,"workload":"tpcc","accesses":20000}
]}`
)

// exchange is one captured request/response pair plus the prose that
// introduces it in the rendered document.
type exchange struct {
	heading string
	prose   string
	method  string
	path    string
	reqBody []byte // nil = no body; rendered as JSON or NDJSON by sniffing
	status  int
	resp    []byte
	text    bool // resp is plain text, not JSON
}

// WireProtocol renders the complete wire-protocol document. storeDir is
// a scratch directory for the fixture service's result store (the
// caller's t.TempDir()); nothing under it appears in the output.
//
//lint:allow deadexport internal/docs' drift test and `make docs` render docs/wire-protocol.md with it
func WireProtocol(ctx context.Context, storeDir string) ([]byte, error) {
	exchanges, err := capture(ctx, storeDir)
	if err != nil {
		return nil, fmt.Errorf("docs: protocol fixtures: %w", err)
	}
	var doc bytes.Buffer
	doc.WriteString(header)
	for _, e := range exchanges {
		if err := renderExchange(&doc, e); err != nil {
			return nil, err
		}
	}
	return doc.Bytes(), nil
}

// capture drives the service protocol end to end — a batch through its
// whole lifecycle, a failed batch, a cancelled one — and records the
// documented exchanges in document order.
func capture(ctx context.Context, storeDir string) ([]exchange, error) {
	st, err := store.Open(storeDir)
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	svc, err := dist.NewService(sctx, dist.ServiceConfig{
		Store: st, Units: 1, LeaseTTL: time.Minute, Clock: obs.Clock(docClock),
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	var out []exchange
	// call performs one exchange; cap additionally records it.
	call := func(method, path, contentType string, body []byte) (int, []byte, error) {
		return roundTrip(ctx, srv, method, path, contentType, "", body)
	}
	cap := func(heading, prose, method, path, contentType string, body []byte) ([]byte, error) {
		status, resp, err := call(method, path, contentType, body)
		if err != nil {
			return nil, err
		}
		out = append(out, exchange{heading: heading, prose: prose, method: method,
			path: path, reqBody: body, status: status, resp: resp})
		return resp, nil
	}
	// submit posts a fixture batch, recording the exchange when heading is
	// set, and returns the batch and its ID.
	submit := func(fixture, heading, prose string) (work.Batch, string, []byte, error) {
		b, err := scenario.LoadBatch(strings.NewReader(fixture))
		if err != nil {
			return nil, "", nil, err
		}
		payload, err := b.MarshalRange(sweep.Range{Lo: 0, Hi: b.Len()})
		if err != nil {
			return nil, "", nil, err
		}
		body, err := json.Marshal(map[string]json.RawMessage{
			"kind":    json.RawMessage(fmt.Sprintf("%q", b.Kind())),
			"payload": payload,
		})
		if err != nil {
			return nil, "", nil, err
		}
		var resp []byte
		if heading != "" {
			resp, err = cap(heading, prose, http.MethodPost, "/v1/batches", "application/json", body)
		} else {
			_, resp, err = call(http.MethodPost, "/v1/batches", "application/json", body)
		}
		if err != nil {
			return nil, "", nil, err
		}
		var stat dist.BatchStatus
		if err := json.Unmarshal(resp, &stat); err != nil {
			return nil, "", nil, err
		}
		return b, stat.ID, body, nil
	}

	b, id, submitBody, err := submit(fixtureBatch, "Submit a batch", submitProse)
	if err != nil {
		return nil, err
	}
	if _, err := cap("Lease a unit", leaseProse,
		http.MethodPost, "/v1/lease", "application/json",
		[]byte(`{"worker":"w1"}`)); err != nil {
		return nil, err
	}
	if _, err := cap("Heartbeat", heartbeatProse,
		http.MethodPost, "/v1/heartbeat", "application/json",
		[]byte(`{"worker":"w1","unit":0,"batch":"`+id+`"}`)); err != nil {
		return nil, err
	}
	var lines []byte
	for i := 0; i < b.Len(); i++ {
		line, err := b.RunItem(ctx, i)
		if err != nil {
			return nil, err
		}
		lines = append(append(lines, line...), '\n')
	}
	if _, err := cap("Report a unit's results", resultProse,
		http.MethodPost, "/v1/result?worker=w1&unit=0&exec_ms=9&batch="+id, "application/x-ndjson",
		lines); err != nil {
		return nil, err
	}
	if _, err := cap("Poll one batch", batchStatusProse,
		http.MethodGet, "/v1/batches/"+id, "", nil); err != nil {
		return nil, err
	}
	if _, err := cap("Stream a batch's results", resultsProse,
		http.MethodGet, "/v1/batches/"+id+"/results", "", nil); err != nil {
		return nil, err
	}
	if _, err := cap("Resubmit the identical batch", resubmitProse,
		http.MethodPost, "/v1/batches", "application/json", submitBody); err != nil {
		return nil, err
	}

	// A second batch whose only unit fails on its worker.
	_, doomed, _, err := submit(fixtureDoomed, "", "")
	if err != nil {
		return nil, err
	}
	if _, _, err := call(http.MethodPost, "/v1/lease", "application/json", []byte(`{"worker":"w1"}`)); err != nil {
		return nil, err
	}
	if _, err := cap("Report a deterministic failure", failProse,
		http.MethodPost, "/v1/fail", "application/json",
		[]byte(`{"worker":"w1","unit":0,"batch":"`+doomed+`","error":"example: trace generator refused the workload"}`)); err != nil {
		return nil, err
	}

	// A third batch, leased by a second worker and probed mid-flight, then
	// cancelled.
	_, unwanted, _, err := submit(fixtureUnwanted, "", "")
	if err != nil {
		return nil, err
	}
	if _, _, err := call(http.MethodPost, "/v1/lease", "application/json", []byte(`{"worker":"w2"}`)); err != nil {
		return nil, err
	}
	if _, err := cap("Operator status probe", statusProse,
		http.MethodGet, "/v1/status", "", nil); err != nil {
		return nil, err
	}
	if _, err := cap("Cancel a batch", cancelProse,
		http.MethodDelete, "/v1/batches/"+unwanted, "", nil); err != nil {
		return nil, err
	}
	if _, err := cap("List the queue", listProse,
		http.MethodGet, "/v1/batches", "", nil); err != nil {
		return nil, err
	}
	if _, err := cap("Metrics", metricsProse,
		http.MethodGet, "/metrics", "", nil); err != nil {
		return nil, err
	}
	out[len(out)-1].text = true

	// A token-gated front: the same handler behind RequireToken answers
	// 401 to anything without the bearer secret.
	gated := httptest.NewServer(dist.RequireToken("s3cret", svc.Handler()))
	defer gated.Close()
	status, resp, err := roundTrip(ctx, gated, http.MethodGet, "/v1/status", "", "", nil)
	if err != nil {
		return nil, err
	}
	out = append(out, exchange{heading: "Authentication", prose: tokenProse,
		method: http.MethodGet, path: "/v1/status", status: status, resp: resp})
	return out, nil
}

// roundTrip performs one HTTP exchange against a fixture server and
// returns the status code and response body.
func roundTrip(ctx context.Context, srv *httptest.Server, method, path, contentType, token string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, srv.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// renderExchange writes one captured exchange as a documentation
// section.
func renderExchange(w *bytes.Buffer, e exchange) error {
	fmt.Fprintf(w, "### %s\n\n", e.heading)
	if e.prose != "" {
		w.WriteString(strings.TrimSpace(e.prose))
		w.WriteString("\n\n")
	}
	fmt.Fprintf(w, "```\n%s %s\n```\n\n", e.method, e.path)
	if e.reqBody != nil {
		label := "Request body"
		if bytes.Count(bytes.TrimRight(e.reqBody, "\n"), []byte("\n")) > 0 || !json.Valid(e.reqBody) {
			label += " (NDJSON)"
		}
		fmt.Fprintf(w, "%s:\n\n", label)
		if err := writeBody(w, e.reqBody); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "Response — %d:\n\n", e.status)
	if e.text {
		fmt.Fprintf(w, "```text\n%s```\n\n", e.resp)
		return nil
	}
	return writeBody(w, e.resp)
}

// writeBody renders a JSON or NDJSON body as an indented fenced block.
func writeBody(w *bytes.Buffer, body []byte) error {
	w.WriteString("```json\n")
	trimmed := bytes.TrimRight(body, "\n")
	for _, line := range bytes.Split(trimmed, []byte("\n")) {
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, line, "", "  "); err != nil {
			return fmt.Errorf("docs: fixture produced invalid JSON: %w (%.80s)", err, line)
		}
		w.Write(pretty.Bytes())
		w.WriteByte('\n')
	}
	w.WriteString("```\n\n")
	return nil
}

// Interface checks: the fixtures must stay real work.Batch values, or
// the captured payloads stop matching what sweepd ships.
var _ work.Batch = scenario.Batch{}
