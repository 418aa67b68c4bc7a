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
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/dist/journal"
	"repro/internal/dist/store"
)

// wideBatch is toyBatch with result lines shaped like a grid point's,
// about 336 bytes long.
type wideBatch struct{ toyBatch }

func (b wideBatch) Kind() string          { return "wide" }
func (b wideBatch) Hash() (string, error) { return fmt.Sprintf("wide%d", b.n), nil }
func (b wideBatch) RunItem(_ context.Context, i int) (json.RawMessage, error) {
	x := float64(i) + 0.123456789012345
	return json.Marshal(map[string]any{
		"name": fmt.Sprintf("point-%04d", i), "l1_local_miss": x / 9973,
		"l2_local_miss": x / 7919, "amat_budget_ps": 1700 + x,
		"l2_optimization": map[string]any{"feasible": true, "leakage_mw": x / 3, "amat_ps": 1699 + x,
			"energy_pj": x / 7, "l2_cell_knobs": "(Vth=0.44V, Tox=14.0A)", "l2_periph_knobs": "(Vth=0.32V, Tox=12.0A)"},
	})
}

// BenchmarkResubmit serves a stored 4000-point batch back: a fresh
// service over a store holding the batch's complete journal (recorded a
// 32-point unit at a time in reverse unit order, as a fleet appends it)
// admits the batch and streams GET .../results to the last byte.
func BenchmarkResubmit(b *testing.B) {
	const n, unit = 4000, 32
	batch := wideBatch{toyBatch{n}}
	dir := b.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	h, err := st.Admit(batch)
	if err != nil {
		b.Fatal(err)
	}
	size := 0
	for lo := (n - 1) / unit * unit; lo >= 0; lo -= unit {
		var items []store.Item
		for i := lo; i < min(lo+unit, n); i++ {
			line, err := batch.RunItem(b.Context(), i)
			if err != nil {
				b.Fatal(err)
			}
			entry, _, err := journal.AppendEntry(nil, i, line)
			if err != nil {
				b.Fatal(err)
			}
			items = append(items, store.Item{I: i, Entry: entry})
			size += len(line) + 1
		}
		if err := h.Append(items); err != nil {
			b.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		resubmit(b, dir, batch, n/unit, size)
	}
}

// resubmit is one restart of BenchmarkResubmit: open the store, admit,
// stream, shut down.
func resubmit(b *testing.B, dir string, batch wideBatch, units, size int) {
	ctx, cancel := context.WithCancel(b.Context())
	defer cancel()
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewService(ctx, ServiceConfig{Store: st, Units: units})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	bs, _, err := s.Submit(batch)
	if err != nil || bs.State != BatchDone {
		b.Fatalf("admission: %+v, %v", bs, err)
	}
	resp, err := srv.Client().Get(srv.URL + "/v1/batches/" + bs.ID + "/results")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.Copy(io.Discard, resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || got != int64(size) {
		b.Fatalf("results: HTTP %d, %d of %d bytes, %v", resp.StatusCode, got, size, err)
	}
}

// keyedWide is wideBatch with an item key per point shaped like a grid
// point's ("wide/" and a hex SHA-256), so its results go through the
// store's item index as a grid's do.
type keyedWide struct{ wideBatch }

func (b keyedWide) ItemKey(i int) (string, error) {
	h, err := journal.Hash(i)
	return "wide/" + h, err
}

// BenchmarkServiceSubmit times the ingest half of a submit, which
// BenchmarkResubmit does not: a fresh service over a fresh store admits
// the 4000-point batch (keyed, as a grid is), takes its 125 units of 32
// lines as POST /v1/result through the handler, and streams GET
// .../results, opened once the first unit is in, to the last byte — a
// stream that follows the batch to its end, as a submitter's does.
func BenchmarkServiceSubmit(b *testing.B) {
	const n, unit = 4000, 32
	batch := keyedWide{wideBatch{toyBatch{n}}}
	var bodies [][]byte
	size := 0
	for lo := 0; lo < n; lo += unit {
		var body []byte
		for i := lo; i < min(lo+unit, n); i++ {
			line, err := batch.RunItem(b.Context(), i)
			if err != nil {
				b.Fatal(err)
			}
			body = append(append(body, line...), '\n')
		}
		bodies = append(bodies, body)
		size += len(body)
	}
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		dir := filepath.Join(root, strconv.Itoa(k))
		submit(b, dir, batch, bodies, size)
		b.StopTimer()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// submit is one run of BenchmarkServiceSubmit: open the store, admit,
// post every unit, stream, shut down.
func submit(b *testing.B, dir string, batch keyedWide, bodies [][]byte, size int) {
	ctx, cancel := context.WithCancel(b.Context())
	defer cancel()
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewService(ctx, ServiceConfig{Store: st, Units: len(bodies)})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	srv := httptest.NewServer(h)
	defer srv.Close()
	bs, _, err := s.Submit(batch)
	if err != nil || bs.State != BatchQueued || bs.UnitsTotal != len(bodies) {
		b.Fatalf("admission: %+v, %v", bs, err)
	}
	post := func(u int) {
		rec := httptest.NewRecorder()
		target := fmt.Sprintf("/v1/result?worker=w0&batch=%s&unit=%d", bs.ID, u)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(bodies[u])))
		if rec.Code != http.StatusOK {
			b.Fatalf("unit %d: HTTP %d %s", u, rec.Code, rec.Body)
		}
	}
	post(0)
	resp, err := srv.Client().Get(srv.URL + "/v1/batches/" + bs.ID + "/results")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	body := bufio.NewReader(resp.Body)
	first, err := body.ReadBytes('\n')
	if err != nil {
		b.Fatal(err)
	}
	for u := 1; u < len(bodies); u++ {
		post(u)
	}
	rest, err := io.Copy(io.Discard, body)
	if got := int64(len(first)) + rest; err != nil || resp.StatusCode != http.StatusOK || got != int64(size) {
		b.Fatalf("results: HTTP %d, %d of %d bytes, %v", resp.StatusCode, got, size, err)
	}
}
