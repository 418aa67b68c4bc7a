package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

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
		for i := lo; i < min(lo+unit, n); i++ {
			line, err := batch.RunItem(b.Context(), i)
			if err != nil {
				b.Fatal(err)
			}
			if err := h.Record(i, line); err != nil {
				b.Fatal(err)
			}
			size += len(line) + 1
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
