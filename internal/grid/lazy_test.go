package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dist/journal"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/work"
)

// millionSpec is a 1,048,576-point grid: 16 l1_kb × 16 l2_kb powers of
// two (1 KB to 32 MB) × 4096 AMAT budgets. Every point passes admission,
// but these tests exercise expansion mechanics (laziness, index
// arithmetic, wire size), never RunItem.
func millionSpec() Spec {
	var sizes []int
	for kb := 1; kb <= 1<<15; kb *= 2 {
		sizes = append(sizes, kb)
	}
	budgets := make([]float64, 4096)
	for i := range budgets {
		budgets[i] = float64(1000 + i)
	}
	return Spec{Grid: Grid{
		Name:      "m-{l1_kb}-{l2_kb}-{amat_budget_ps}",
		Axes:      Axes{L1KB: sizes, L2KB: sizes, AMATBudgetPS: budgets},
		Base:      scenario.Config{Workload: "tpcc", Accesses: 20000, Fidelity: "analytical"},
		MaxPoints: HardMaxPoints,
	}}
}

// runnableMillionSpec is a 1,048,576-point grid every point of which is a
// valid, runnable analytical scenario: 4 L2 capacities × 262,144 AMAT
// budgets over a fixed 16KB L1. Row-major order puts amat_budget_ps
// fastest, so any small contiguous range shares its cache designs and
// workload profile — the sub-millisecond marginal-point regime of
// BenchmarkGridRunItem.
func runnableMillionSpec() Spec {
	budgets := make([]float64, 1<<18)
	for i := range budgets {
		budgets[i] = float64(1_000_000 + i)
	}
	return Spec{Grid: Grid{
		Name:      "e-l2{l2_kb}-b{amat_budget_ps}",
		Axes:      Axes{L2KB: []int{256, 512, 1024, 2048}, AMATBudgetPS: budgets},
		Base:      scenario.Config{L1KB: 16, Workload: "tpcc", Accesses: 20000, Fidelity: "analytical"},
		MaxPoints: HardMaxPoints,
	}}
}

// TestMillionPointExpandIsLazy pins the tentpole memory property: a
// 2^20-point grid expands under the raised HardMaxPoints in O(axes)
// allocations — per axis value, never per point — and point configs are
// computed on demand in O(1) allocations from the row-major index.
func TestMillionPointExpandIsLazy(t *testing.T) {
	s := millionSpec()
	var (
		b   *Batch
		err error
	)
	allocs := testing.AllocsPerRun(1, func() {
		b, err = s.Expand()
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1<<20 {
		t.Fatalf("Len = %d, want %d", b.Len(), 1<<20)
	}
	// O(sum of axis lengths) work is ~4128 values here; a materializing
	// expansion would pay several allocations per point, i.e. millions.
	if allocs > 50_000 {
		t.Errorf("Expand of a 2^20-point grid did %.0f allocations — expansion is materializing points", allocs)
	}

	// Row-major spot checks: amat_budget_ps varies fastest.
	for _, at := range []struct {
		i    int
		name string
	}{
		{0, "m-1-1-1000"},
		{1, "m-1-1-1001"},
		{4096, "m-1-2-1000"},
		{16 * 4096, "m-2-1-1000"},
		{512*1024 + 7, "m-256-1-1007"},
		{1<<20 - 1, "m-32768-32768-5095"},
	} {
		c := b.ConfigAt(at.i)
		if c.Name != at.name {
			t.Errorf("ConfigAt(%d).Name = %q, want %q", at.i, c.Name, at.name)
		}
		if c.Seed != 1 || c.Scheme != 2 {
			t.Errorf("ConfigAt(%d) not defaulted: %+v", at.i, c)
		}
	}
	perPoint := testing.AllocsPerRun(100, func() {
		_ = b.ConfigAt(1 << 19)
	})
	if perPoint > 32 {
		t.Errorf("ConfigAt did %.0f allocations per point, want O(1) name rendering only", perPoint)
	}
}

// TestMillionPointWirePayload pins that the wire form of any slice of a
// million-point grid stays O(spec): the payload ships axes and a range,
// never points.
func TestMillionPointWirePayload(t *testing.T) {
	b, err := millionSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := b.MarshalRange(sweep.Range{Lo: 0, Hi: b.Len()})
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) > 64<<10 {
		t.Errorf("wire payload for 2^20 points is %d bytes, want O(spec)", len(payload))
	}
	sub, err := work.Unmarshal(WorkKind, payload)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != b.Len() {
		t.Fatalf("decoded Len = %d, want %d", sub.Len(), b.Len())
	}
	if got := sub.(*Batch).ConfigAt(1<<20 - 1).Name; got != "m-32768-32768-5095" {
		t.Errorf("decoded last point named %q, want m-32768-32768-5095", got)
	}
}

// TestMillionPointGridStreams runs a contiguous slice of a fully runnable
// 2^20-point analytical grid end-to-end through the unified driver — the
// worker's-eye view of a million-point sweep: decode a wire range,
// compute configs on demand, stream NDJSON lines.
func TestMillionPointGridStreams(t *testing.T) {
	full, err := runnableMillionSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	const lo, hi = 1000, 1008
	payload, err := full.MarshalRange(sweep.Range{Lo: lo, Hi: hi})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := work.Unmarshal(WorkKind, payload)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := work.Run(context.Background(), sub, work.Options{Workers: 2}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != hi-lo {
		t.Fatalf("streamed %d lines, want %d", len(lines), hi-lo)
	}
	for i, line := range lines {
		want := fmt.Sprintf("%q", full.ConfigAt(lo+i).Name)
		if !strings.Contains(line, want) {
			t.Errorf("line %d = %s, want it to carry name %s", i, line, want)
		}
	}
}

// TestFullMillionPointRun is the complete 2^20-point single-process run —
// minutes of compute, so it is opt-in: REPRO_MILLION_E2E=1. It pins the
// headline acceptance number: a million-point analytical grid end-to-end
// in one process.
func TestFullMillionPointRun(t *testing.T) {
	if os.Getenv("REPRO_MILLION_E2E") == "" {
		t.Skip("set REPRO_MILLION_E2E=1 to run the full 2^20-point grid")
	}
	b, err := runnableMillionSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	var n int
	err = work.Run(context.Background(), b, work.Options{
		Observe: func(int, json.RawMessage) { n++ },
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if n != b.Len() {
		t.Fatalf("ran %d points, want %d", n, b.Len())
	}
}

// TestJournalStatBoundIsHardMaxPoints ties the item count the journal
// reader accepts from a header it has no batch for (journal.Stat) to the
// largest grid: a checkpoint of a HardMaxPoints grid stats, and a header
// one item larger is refused before its bitset is allocated.
func TestJournalStatBoundIsHardMaxPoints(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{HardMaxPoints, HardMaxPoints + 1} {
		path := filepath.Join(dir, fmt.Sprintf("%d.journal", n))
		j, err := journal.Create(path, journal.Header{Kind: WorkKind, BatchSHA256: "x", N: n})
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		_, err = journal.Stat(path)
		if ok := n <= HardMaxPoints; (err == nil) != ok {
			t.Errorf("Stat of a %d-item header: err %v, want accepted=%v", n, err, ok)
		}
	}
}
