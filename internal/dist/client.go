package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/sweep"
	"repro/internal/work"
)

// Client is the one client of the service's HTTP API: `sweepd submit`
// submits, waits on and streams batches through it, and Worker sends the
// lease, heartbeat, result and fail requests of the worker protocol.
type Client struct {
	// URL is the service's base URL, e.g. "http://host:8080".
	URL string
	// Token, when non-empty, is the service's shared secret: every
	// request carries it as `Authorization: Bearer <token>`. A service
	// behind RequireToken answers 401 without it.
	Token string
	// HTTP is the HTTP client (nil = http.DefaultClient).
	HTTP *http.Client
}

// do sends one request — body, when non-nil, as contentType — and returns
// the response with its body open. A non-2xx answer is an error carrying
// the status and the server's "error" field when present; a transport
// failure is returned as the *url.Error the HTTP client reports.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte) (*http.Response, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.URL+path, r)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	client := c.HTTP
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 {
		return resp, nil
	}
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, maxControlBody))
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return nil, fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return nil, fmt.Errorf("%s", resp.Status)
}

// call sends one request and decodes the JSON answer, of at most the
// control-body cap, into out (nil = read and discard it).
func (c *Client) call(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	resp, err := c.do(ctx, method, path, contentType, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxControlBody))
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// post sends in as a JSON body and decodes the JSON answer into out.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.call(ctx, http.MethodPost, path, "application/json", body, out)
}

// Submit posts b to the service's queue and returns the batch's status
// at admission: a new batch, or the one an identical earlier submission
// created.
func (c *Client) Submit(ctx context.Context, b work.Batch) (BatchStatus, error) {
	var st BatchStatus
	payload, err := b.MarshalRange(sweep.Range{Lo: 0, Hi: b.Len()})
	if err != nil {
		return st, err
	}
	return st, c.post(ctx, "/v1/batches", struct {
		Kind    string          `json:"kind"`
		Payload json.RawMessage `json:"payload"`
	}{b.Kind(), payload}, &st)
}

// Wait polls batch id until it reaches a terminal state and returns that
// status.
func (c *Client) Wait(ctx context.Context, id string) (BatchStatus, error) {
	for {
		var st BatchStatus
		err := c.call(ctx, http.MethodGet, "/v1/batches/"+id, "", nil, &st)
		if err != nil || st.State == BatchDone || st.State == BatchFailed || st.State == BatchCancelled {
			return st, err
		}
		if err := sleep(ctx, 100*time.Millisecond); err != nil {
			return st, err
		}
	}
}

// Results copies batch id's input-ordered NDJSON result stream to w. The
// service holds the stream open while the batch runs, so Results returns
// once every line is delivered, or when the batch ends early.
func (c *Client) Results(ctx context.Context, id string, w io.Writer) error {
	resp, err := c.do(ctx, http.MethodGet, "/v1/batches/"+id+"/results", "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(w, resp.Body)
	return err
}

// result uploads a unit's NDJSON lines with the worker's measured
// execution time.
func (c *Client) result(ctx context.Context, worker string, u Unit, lines [][]byte, execMS int64) error {
	body := bytes.Join(lines, []byte("\n"))
	body = append(body, '\n')
	// The worker ID is free-form operator input (-id); escape it so an
	// '&' or space cannot corrupt the query string.
	path := fmt.Sprintf("/v1/result?worker=%s&unit=%d&exec_ms=%d", url.QueryEscape(worker), u.ID, execMS)
	if u.Batch != "" {
		path += "&batch=" + url.QueryEscape(u.Batch)
	}
	return c.call(ctx, http.MethodPost, path, "application/x-ndjson", body, nil)
}
