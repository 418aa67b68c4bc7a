package dist

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dist/store"
	"repro/internal/sweep"
)

// gatedService boots a service over a temp store behind RequireToken; stop
// cancels the service context.
func gatedService(t *testing.T, token string) (*Service, *httptest.Server, context.CancelFunc) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(t.Context())
	t.Cleanup(stop)
	s, err := NewService(ctx, ServiceConfig{Store: st, LeaseTTL: time.Minute, RetryAfter: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	srv := httptest.NewServer(RequireToken(token, s.Handler()))
	t.Cleanup(srv.Close)
	return s, srv, stop
}

// TestRequireTokenGate pins the middleware contract: no header, a
// malformed header, and a wrong secret are all 401 without reaching the
// service; the right secret passes through.
func TestRequireTokenGate(t *testing.T) {
	_, srv, _ := gatedService(t, "s3cret")
	post := func(auth string) int {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/lease", strings.NewReader(`{"worker":"w"}`))
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, bad := range []string{"", "Bearer wrong", "Basic s3cret", "s3cret"} {
		if code := post(bad); code != http.StatusUnauthorized {
			t.Errorf("auth %q: status %d, want 401", bad, code)
		}
	}
	if code := post("Bearer s3cret"); code != http.StatusOK {
		t.Errorf("valid token: status %d, want 200", code)
	}
}

// TestTokenCoversEveryEndpoint pins that every route the service handler
// serves — the batch lifecycle, the status probe, and the metrics
// exposition included — sits behind the same gate as the work protocol:
// each answers 401 without the secret and 2xx with it. A fleet whose wire
// protocol needs a token must not leak progress or worker liveness to
// anonymous scrapers. The requests run in order over one real batch, so
// each authorized one succeeds.
func TestTokenCoversEveryEndpoint(t *testing.T) {
	_, srv, _ := gatedService(t, "s3cret")
	b := testBatch(t, 1)
	payload, err := b.MarshalRange(sweep.Range{Lo: 0, Hi: b.Len()})
	if err != nil {
		t.Fatal(err)
	}
	submission, err := json.Marshal(map[string]any{"kind": b.Kind(), "payload": json.RawMessage(payload)})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	id := store.BatchID(b.Kind(), hash)

	endpoints := []struct {
		method, path, body string
	}{
		{http.MethodPost, "/v1/batches", string(submission)},
		{http.MethodPost, "/v1/lease", `{"worker":"w"}`},
		{http.MethodPost, "/v1/heartbeat", `{"worker":"w","unit":0,"batch":"` + id + `"}`},
		{http.MethodPost, "/v1/result?worker=w&unit=0&batch=" + id, "{}\n"},
		{http.MethodPost, "/v1/fail", `{"worker":"w","unit":0,"batch":"` + id + `","error":"x"}`},
		{http.MethodGet, "/v1/status", ""},
		{http.MethodGet, "/metrics", ""},
		{http.MethodGet, "/v1/batches", ""},
		{http.MethodGet, "/v1/batches/" + id, ""},
		{http.MethodGet, "/v1/batches/" + id + "/results", ""},
		{http.MethodDelete, "/v1/batches/" + id, ""},
	}
	for _, ep := range endpoints {
		do := func(withToken bool) int {
			req, err := http.NewRequest(ep.method, srv.URL+ep.path, strings.NewReader(ep.body))
			if err != nil {
				t.Fatal(err)
			}
			if withToken {
				req.Header.Set("Authorization", "Bearer s3cret")
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}
		if code := do(false); code != http.StatusUnauthorized {
			t.Errorf("%s %s without token: status %d, want 401", ep.method, ep.path, code)
		}
		if code := do(true); code/100 != 2 {
			t.Errorf("%s %s with token: status %d, want 2xx", ep.method, ep.path, code)
		}
	}
}

// TestRequireTokenEmptyDisables checks an empty token leaves the handler
// untouched (auth off), matching the -token flag default.
func TestRequireTokenEmptyDisables(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusTeapot) })
	rec := httptest.NewRecorder()
	RequireToken("", h).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("empty token must disable auth, got status %d", rec.Code)
	}
}

// TestWorkerSendsToken runs a full distributed toy batch through a
// token-gated service: workers carrying the secret complete it, workers
// without it fail their first lease with a 401.
func TestWorkerSendsToken(t *testing.T) {
	s, srv, stop := gatedService(t, "s3cret")
	st, _, err := s.Submit(toyBatch{6})
	if err != nil {
		t.Fatal(err)
	}

	intruder := &Worker{
		Coordinator: srv.URL, ID: "intruder", Exec: toyExec(-1),
		Client: srv.Client(), Poll: 5 * time.Millisecond,
	}
	if err := intruder.Run(t.Context()); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("tokenless worker must fail with 401, got %v", err)
	}

	w := &Worker{
		Coordinator: srv.URL, ID: "w0", Exec: toyExec(-1),
		Client: srv.Client(), Poll: 5 * time.Millisecond, Token: "s3cret",
	}
	werr := make(chan error, 1)
	go func() { werr <- w.Run(t.Context()) }()
	got, verdict := results(t.Context(), s, st.ID)
	stop()
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	if verdict != nil || got != toyWant(6) {
		t.Errorf("token-gated run (verdict %v):\n got: %q\nwant: %q", verdict, got, toyWant(6))
	}
}
