package journal

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
)

// benchLine is a synthetic result line shaped like a grid point's, about
// 336 bytes, made by json.Marshal as RunItem's lines are.
func benchLine(i int) []byte {
	x := float64(i) + 0.123456789012345
	line, err := json.Marshal(map[string]any{
		"name": fmt.Sprintf("point-%04d", i), "l1_local_miss": x / 9973,
		"l2_local_miss": x / 7919, "amat_budget_ps": 1700 + x,
		"l2_optimization": map[string]any{"feasible": true, "leakage_mw": x / 3, "amat_ps": 1699 + x,
			"energy_pj": x / 7, "l2_cell_knobs": "(Vth=0.44V, Tox=14.0A)", "l2_periph_knobs": "(Vth=0.32V, Tox=12.0A)"},
	})
	if err != nil {
		panic(err)
	}
	return line
}

// BenchmarkReplay reads back the complete journal of a 4000-point batch
// whose lines were recorded a 32-point unit at a time in reverse unit
// order, as a fleet appends them: the read a store admission and a
// finished batch's results stream each pay.
func BenchmarkReplay(b *testing.B) {
	const n, unit = 4000, 32
	path := filepath.Join(b.TempDir(), "bench.journal")
	h := testHeader(n)
	j, err := Create(path, h)
	if err != nil {
		b.Fatal(err)
	}
	for lo := (n - 1) / unit * unit; lo >= 0; lo -= unit {
		for i := lo; i < min(lo+unit, n); i++ {
			if err := j.Record(i, benchLine(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		entries, err := Replay(path, h)
		if err != nil || len(entries) != n {
			b.Fatalf("replayed %d entries, %v", len(entries), err)
		}
	}
}
