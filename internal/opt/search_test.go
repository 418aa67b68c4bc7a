package opt

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/components"
	"repro/internal/device"
	"repro/internal/units"
)

// tableEvaluator scores a fuzz input's candidates from its rows: an
// operating point's Vth is its row, and each component reads its own
// column. Rows whose bytes agree tie exactly.
type tableEvaluator struct {
	delay, leak [][components.PartCount]float64
}

func (e tableEvaluator) PartDelayS(p components.PartID, op device.OperatingPoint) float64 {
	return e.delay[int(op.Vth)][p]
}

func (e tableEvaluator) PartLeakageW(p components.PartID, op device.OperatingPoint) float64 {
	return e.leak[int(op.Vth)][p]
}

func (e tableEvaluator) AccessTimeS(a components.Assignment) float64 {
	var d float64
	for p, op := range a {
		d += e.PartDelayS(components.PartID(p), op)
	}
	return d
}

func (e tableEvaluator) LeakageW(a components.Assignment) float64 {
	var l float64
	for p, op := range a {
		l += e.PartLeakageW(components.PartID(p), op)
	}
	return l
}

// fuzzScore decodes one score byte: 255 is NaN, 254 is +Inf, and any
// other byte b is (b & 15) units, so that rows tie often.
func fuzzScore(b byte, unit float64) float64 {
	switch b {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	}
	return float64(b&15) * unit
}

// fuzzSearchInput decodes FuzzSearch's input: rows holds 8 bytes per
// candidate row (four component delays in units of 0.1 ns, then four
// leakages in mW), at most 64 rows, and each byte of ids picks the row of
// one operating point, at most 64, repeats allowed. ok is false when
// either is empty.
func fuzzSearchInput(rows, ids []byte) (ev tableEvaluator, ops []device.OperatingPoint, ok bool) {
	n := min(len(rows)/8, 64)
	for r := 0; r < n; r++ {
		var d, l [components.PartCount]float64
		for p := range d {
			d[p] = fuzzScore(rows[8*r+p], 1e-10)
			l[p] = fuzzScore(rows[8*r+4+p], 1e-3)
		}
		ev.delay, ev.leak = append(ev.delay, d), append(ev.leak, l)
	}
	for _, b := range ids[:min(len(ids), 64)] {
		if n > 0 {
			ops = append(ops, device.OperatingPoint{Vth: float64(int(b) % n), ToxM: 1})
		}
	}
	return ev, ops, len(ops) > 0
}

// addContractSeeds seeds FuzzSearch with TestSearchContract's fixtures:
// the Scheme I and III menu, whose two 0.3 V candidates tie, and Scheme
// II's twenty candidates in tied pairs.
func addContractSeeds(f *testing.F) {
	row := func(d, l byte) []byte { return []byte{d, d, d, d, l, l, l, l} }
	var rows []byte
	for _, r := range [][2]byte{{1, 3}, {2, 2}, {2, 2}, {3, 1}} {
		rows = append(rows, row(r[0], r[1])...)
	}
	f.Add(rows, []byte{0, 1, 2, 3}, 0.95e-9)

	rows = nil
	var ids []byte
	for k := 0; k < 10; k++ {
		v := byte((3 * k) % 10)
		rows = append(rows, row(v+1, 10-v)...)
		rows = append(rows, row(v+1, 10-v)...)
		ids = append(ids, byte(2*k), byte(2*k+1))
	}
	f.Add(rows, ids, 1e-6)
}

// searchOutcome runs one search, reporting a panic as its text.
func searchOutcome(run func() (Result, error)) (r Result, err error, panicked string) {
	defer func() {
		if p := recover(); p != nil {
			panicked = fmt.Sprint(p)
		}
	}()
	r, err = run()
	return r, err, ""
}

// sameResult compares two results bit for bit.
func sameResult(a, b Result) bool {
	return a.Scheme == b.Scheme && a.Assignment == b.Assignment && a.Feasible == b.Feasible &&
		a.Evaluated == b.Evaluated &&
		math.Float64bits(a.LeakageW) == math.Float64bits(b.LeakageW) &&
		math.Float64bits(a.DelayS) == math.Float64bits(b.DelayS)
}

// FuzzSearch holds the prepared search to the searches it replaced
// (reference_test.go): one search over a fuzzed component evaluator —
// exact ties, +Inf and NaN scores, 1–64 operating points with repeats —
// answers Schemes I–III at the fuzzed budget, its negation, 0 and ±Inf,
// each with the same Result as the reference, float bits, assignment,
// feasibility and Evaluated included. A panic is an outcome both must
// share: Scheme I's dynamic program, kept as it was, indexes its tables
// by a bin count that a NaN or infinite front delay, or a budget so small
// that the count overflows, sends out of range. A NaN budget, which the
// Scheme I and II references mishandle, must come back infeasible with
// the scheme's full Evaluated count.
func FuzzSearch(f *testing.F) {
	addContractSeeds(f)
	f.Add([]byte{255, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 254, 1, 1, 1, 3, 3, 3, 3, 1, 1, 1, 1}, []byte{0, 1, 2, 2, 1, 0}, 1e-9)
	f.Fuzz(func(t *testing.T, rows, ids []byte, budget float64) {
		ev, ops, ok := fuzzSearchInput(rows, ids)
		if !ok {
			return
		}
		ctx := context.Background()
		s := &search{ev: ev, ops: ops}
		for _, b := range []float64{budget, -budget, 0, math.Inf(1), math.Inf(-1), math.NaN()} {
			for _, scheme := range []Scheme{SchemeIII, SchemeII, SchemeI} {
				got, gotErr, gotPanic := searchOutcome(func() (Result, error) { return s.query(ctx, scheme, b) })
				if math.IsNaN(b) {
					if gotErr != nil || gotPanic != "" || got.Feasible || got.Evaluated != s.evaluated(scheme) {
						t.Fatalf("%v at a NaN budget: %+v, err %v, panic %q; want infeasible with Evaluated %d",
							scheme, got, gotErr, gotPanic, s.evaluated(scheme))
					}
					continue
				}
				want, wantErr, wantPanic := searchOutcome(func() (Result, error) { return referenceSearch[scheme](ctx, ev, ops, b) })
				if gotPanic != wantPanic || gotErr != wantErr || !sameResult(got, want) {
					t.Fatalf("%v at budget %v:\n got %+v, err %v, panic %q\nwant %+v, err %v, panic %q",
						scheme, b, got, gotErr, gotPanic, want, wantErr, wantPanic)
				}
			}
		}
	})
}

// TestSearchBudgetEdges pins each scheme at the budgets no caller should
// have to special-case. A NaN budget, which no delay meets, is infeasible
// with the scheme's full Evaluated count: it must neither panic Scheme I's
// bin arithmetic nor pass Scheme II's "rem < 0" test. Every other edge
// answers exactly as the reference searches do.
func TestSearchBudgetEdges(t *testing.T) {
	ev := vthEvaluator{
		delay: map[float64]float64{0.2: 1e-10, 0.3: 2e-10},
		leak:  map[float64]float64{0.2: 2e-3, 0.3: 1e-3},
	}
	ops := []device.OperatingPoint{device.OP(0.2, 10), device.OP(0.3, 10), device.OP(0.3, 12)}
	for _, tc := range []struct {
		name     string
		budget   float64
		feasible bool
	}{
		{"NaN", math.NaN(), false},
		{"-Inf", math.Inf(-1), false},
		{"-1s", -1, false},
		{"0", 0, false},
		{"+Inf", math.Inf(1), true},
	} {
		for _, scheme := range []Scheme{SchemeI, SchemeII, SchemeIII} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, scheme), func(t *testing.T) {
				got, err := OptimizeCtx(t.Context(), scheme, ev, ops, tc.budget)
				if err != nil {
					t.Fatal(err)
				}
				if got.Feasible != tc.feasible {
					t.Errorf("Feasible = %v, want %v: %+v", got.Feasible, tc.feasible, got)
				}
				if math.IsNaN(tc.budget) {
					groups := map[Scheme]int{SchemeI: int(components.PartCount), SchemeII: 2, SchemeIII: 1}[scheme]
					if want := infeasible(scheme); got.Scheme != want.Scheme || got.LeakageW != want.LeakageW ||
						got.Assignment != want.Assignment || got.Evaluated != groups*len(ops) {
						t.Errorf("got %+v, want infeasible with Evaluated %d", got, groups*len(ops))
					}
					return
				}
				want, err := referenceSearch[scheme](t.Context(), ev, ops, tc.budget)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(got, want) {
					t.Errorf("got %+v, want the reference's %+v", got, want)
				}
			})
		}
	}
}

// countingEvaluator is a comparable vthEvaluator that counts, from any
// goroutine, the scores only a search's build asks for: a component's
// leakage and a uniform candidate's delay.
type countingEvaluator struct {
	vthEvaluator
	scored atomic.Int64
}

func (e *countingEvaluator) PartLeakageW(p components.PartID, op device.OperatingPoint) float64 {
	e.scored.Add(1)
	return e.vthEvaluator.PartLeakageW(p, op)
}

func (e *countingEvaluator) AccessTimeS(a components.Assignment) float64 {
	e.scored.Add(1)
	return e.vthEvaluator.AccessTimeS(a)
}

// TestPreparedSearchRegistry pins where the prepared searches live: a
// registered evaluator's searches over its own ops slice score the
// candidates once, from concurrent budgets too, and give what a search
// built for the call gives; the same evaluator over another slice of
// equal contents, and an evaluator whose type is not comparable, take a
// search built for the call, without panicking.
func TestPreparedSearchRegistry(t *testing.T) {
	ev := &countingEvaluator{vthEvaluator: vthEvaluator{
		delay: map[float64]float64{0.2: 1e-10, 0.3: 2e-10, 0.4: 3e-10},
		leak:  map[float64]float64{0.2: 3e-3, 0.3: 2e-3, 0.4: 1e-3},
	}}
	ops := PairsFromGrid([]float64{0.2, 0.3, 0.4}, []float64{10, 12})
	Prepare(ev, ops)
	budgets := units.Linspace(0, 1.4e-9, 16)

	for _, scheme := range []Scheme{SchemeI, SchemeII, SchemeIII} {
		got, err := FrontierCtx(t.Context(), scheme, ev, ops, budgets)
		if err != nil {
			t.Fatal(err)
		}
		built := ev.scored.Load()
		again, err := FrontierCtx(t.Context(), scheme, ev, ops, budgets)
		if err != nil {
			t.Fatal(err)
		}
		if n := ev.scored.Load(); n != built {
			t.Errorf("%v: a second sweep scored %d more candidates, want 0", scheme, n-built)
		}
		for i, b := range budgets {
			want, err := (&search{ev: ev, ops: ops}).query(t.Context(), scheme, b)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got[i], want) || !sameResult(again[i], want) {
				t.Errorf("%v at %v: registered search gave %+v then %+v, want %+v", scheme, b, got[i], again[i], want)
			}
		}
	}

	before := ev.scored.Load()
	copied := append([]device.OperatingPoint(nil), ops...)
	if _, err := OptimizeCtx(t.Context(), SchemeIII, ev, copied, 1e-9); err != nil {
		t.Fatal(err)
	}
	if ev.scored.Load() == before {
		t.Error("a search over a copy of the registered ops answered from the registered search")
	}

	plain := vthEvaluator{delay: ev.delay, leak: ev.leak}
	Prepare(plain, ops)
	if _, err := OptimizeCtx(t.Context(), SchemeII, plain, ops, 1e-9); err != nil {
		t.Fatal(err)
	}
}
