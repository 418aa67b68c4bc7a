package dist

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestClientSubmitReportsRefusal pins how the client reports a batch the
// service refuses: the error carries the 400 and the server's own text.
func TestClientSubmitReportsRefusal(t *testing.T) {
	_, srv := startService(t, t.Context(), t.TempDir(), ServiceConfig{})
	c := &Client{URL: srv.URL, HTTP: srv.Client()}
	_, err := c.Submit(t.Context(), toyBatch{n: 3})
	if err == nil || !strings.HasPrefix(err.Error(), "400 Bad Request: ") || !strings.Contains(err.Error(), `unknown kind "toy"`) {
		t.Fatalf("submitting an unregistered kind: %v; want the 400's unknown kind text", err)
	}
}

// TestClientResults checks Results copies the service's result stream
// byte for byte, Wait returns the batch's terminal status, and an
// unknown batch is an error carrying the 404's text.
func TestClientResults(t *testing.T) {
	_, srv, id, _ := batchService(t, toyBatch{n: 7}, ServiceConfig{Units: 3})
	ctx, stop := context.WithCancel(t.Context())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); serviceWorker(ctx, srv, "w0", toyExec(-1)) }()
	defer func() { stop(); wg.Wait() }()
	c := &Client{URL: srv.URL, HTTP: srv.Client()}

	var got bytes.Buffer
	if err := c.Results(ctx, id, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != toyWant(7) {
		t.Errorf("Results copied %q, want %q", got.String(), toyWant(7))
	}
	st, err := c.Wait(ctx, id)
	if err != nil || st.ID != id || st.State != BatchDone || st.ItemsDone != 7 {
		t.Fatalf("Wait = %+v, %v; want batch %s done with 7 items", st, err, id)
	}
	resp, err := http.Get(srv.URL + "/v1/batches/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got.Reset()
	if err := c.Results(ctx, id, &got); err != nil || !bytes.Equal(got.Bytes(), raw) {
		t.Errorf("Results of the done batch = %q, %v; the raw stream is %q", got.String(), err, raw)
	}

	if err := c.Results(ctx, "toy-nope", io.Discard); err == nil || err.Error() != "404 Not Found: unknown batch" {
		t.Errorf("Results of an unknown batch: %v; want the 404's text", err)
	}
}
