package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/dist/store"
)

// workerEndpoints are the worker-facing routes FuzzWorkerProtocol posts
// to. POST /v1/batches stays out: an accepted body admits a batch and
// writes store files, and FuzzUnmarshal and FuzzLoadWork cover its
// decoders.
var workerEndpoints = []string{"/v1/lease", "/v1/heartbeat", "/v1/result", "/v1/fail"}

// FuzzWorkerProtocol posts arbitrary bodies (and, to /v1/result, an
// arbitrary query) to one service over a temp store holding a small toy
// batch, on a fake clock. Whatever arrives, the service must not panic,
// must answer 200, 400, 409 or 413, must keep /v1/status decodable, and
// must leave the worker table as it was when it answers 400.
func FuzzWorkerProtocol(f *testing.F) {
	ctx, stop := context.WithCancel(context.Background())
	f.Cleanup(stop)
	st, err := store.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	fc := &fakeClock{now: time.Unix(1000, 0)}
	s, err := NewService(ctx, ServiceConfig{Store: st, Units: 2, LeaseTTL: time.Minute, Clock: fc.clock})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	bs, _, err := s.Submit(toyBatch{4})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()

	unit0 := "worker=w0&batch=" + bs.ID + "&unit=0"
	f.Add(uint8(0), "", []byte(`{"worker":"w0"}`))
	f.Add(uint8(2), unit0+"&exec_ms=Inf", []byte("{\"i\":0}\n{\"i\":1}\n"))
	f.Add(uint8(2), unit0+"&exec_ms=1e300", []byte("{\"i\":0}\n{\"i\":1}\n"))
	f.Add(uint8(2), unit0+"&exec_ms=-1", []byte("{\"i\":0}\n{\"i\":1}\n"))
	f.Add(uint8(2), "worker=ghost-result&batch=nope&unit=0", []byte("{}\n"))
	f.Add(uint8(1), "", []byte(`{"worker":"ghost-heartbeat","batch":"nope","unit":0}`))
	f.Add(uint8(1), "", []byte(`{}`))
	f.Add(uint8(3), "", []byte(`{"worker":"ghost-fail","batch":"nope","unit":0,"error":"x"}`))
	f.Add(uint8(3), "", []byte(`{}`))

	f.Fuzz(func(t *testing.T, endpoint uint8, query string, body []byte) {
		before := s.Status().Workers
		req := httptest.NewRequest(http.MethodPost, workerEndpoints[int(endpoint)%len(workerEndpoints)], bytes.NewReader(body))
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%s?%s: HTTP %d %s", req.URL.Path, query, rec.Code, rec.Body)
		}
		if after := s.Status().Workers; rec.Code == http.StatusBadRequest && !reflect.DeepEqual(after, before) {
			t.Fatalf("%s?%s answered 400 but changed the workers:\n%+v\n->\n%+v", req.URL.Path, query, before, after)
		}
		status := httptest.NewRecorder()
		h.ServeHTTP(status, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
		var ss ServiceStatus
		if err := json.Unmarshal(status.Body.Bytes(), &ss); err != nil {
			t.Fatalf("after %s?%s: /v1/status does not decode: %v (%q)", req.URL.Path, query, err, status.Body)
		}
	})
}
