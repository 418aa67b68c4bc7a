package opt

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/components"
	"repro/internal/device"
	"repro/internal/mem"
)

// vthEvaluator is a fake CacheEvaluator whose scores depend only on an
// operating point's Vth, so candidates that differ only in Tox tie exactly.
// Every component scores alike; dynamic energy is zero.
type vthEvaluator struct {
	delay, leak map[float64]float64
}

func (e vthEvaluator) PartDelayS(_ components.PartID, op device.OperatingPoint) float64 {
	return e.delay[op.Vth]
}

func (e vthEvaluator) PartLeakageW(_ components.PartID, op device.OperatingPoint) float64 {
	return e.leak[op.Vth]
}

func (e vthEvaluator) AccessTimeS(a components.Assignment) float64 {
	var d float64
	for p, op := range a {
		d += e.PartDelayS(components.PartID(p), op)
	}
	return d
}

func (e vthEvaluator) LeakageW(a components.Assignment) float64 {
	var l float64
	for p, op := range a {
		l += e.PartLeakageW(components.PartID(p), op)
	}
	return l
}

func (e vthEvaluator) DynamicEnergyJ(components.Assignment) float64 { return 0 }

// TestSearchContract pins what every knob search promises beyond its
// optimum: ties go to the earliest feasible candidate in scan order,
// Evaluated counts every candidate scored, and a cancelled context is
// reported before any work.
func TestSearchContract(t *testing.T) {
	leak := map[float64]float64{0.2: 3e-3, 0.3: 2e-3, 0.4: 1e-3}
	ev := vthEvaluator{delay: map[float64]float64{0.2: 1e-10, 0.3: 2e-10, 0.4: 3e-10}, leak: leak}
	// Uniform 0.4 misses the budget; the two uniform 0.3 candidates tie.
	ops := []device.OperatingPoint{device.OP(0.2, 10), device.OP(0.3, 10), device.OP(0.3, 12), device.OP(0.4, 10)}
	const budget = 0.95e-9

	// Equal delays make all-0.4 the energy optimum in every (Vth set, Tox
	// set) choice holding 0.4: {0.2,0.4} and {0.3,0.4}, each with Tox 10
	// or 12. Enumeration order puts ({0.2,0.4}, {10}) first.
	flat := vthEvaluator{delay: map[float64]float64{0.2: 1e-10, 0.3: 1e-10, 0.4: 1e-10}, leak: leak}
	ms := &MemorySystem{TwoLevel: TwoLevel{L1: flat, L2: flat, M1: 0.1, M2: 0.5, Mem: mem.DefaultDDR()}}
	vths, toxs := []float64{0.2, 0.3, 0.4}, []float64{10, 12}
	type tupleWinner struct{ Vths, Toxs []float64 }

	// Scheme II's fronts see 20 candidates: ten Vth values in scrambled
	// order, each tied across Tox 10 and 12. Below 13 candidates the
	// front's sort is an insertion sort, stable by accident. Every
	// candidate meets the budget, so the top Vth wins both groups, on its
	// earlier (Tox 10) twin.
	wide := vthEvaluator{delay: map[float64]float64{}, leak: map[float64]float64{}}
	var wideOps []device.OperatingPoint
	for k := 0; k < 10; k++ {
		v := (3 * k) % 10
		vth := 0.2 + 0.02*float64(v)
		wide.delay[vth], wide.leak[vth] = float64(v+1)*1e-10, float64(10-v)*1e-3
		wideOps = append(wideOps, device.OP(vth, 10), device.OP(vth, 12))
	}
	top := device.OP(0.2+0.02*9, 10)

	for _, tc := range []struct {
		name string
		// search returns the evaluation count and the winner to compare
		// (nil when the search makes no tie-breaking promise).
		search        func(context.Context) (evaluated int, winner any, err error)
		wantEvaluated int
		wantWinner    any
	}{
		{
			name: "scheme III",
			search: func(ctx context.Context) (int, any, error) {
				r, err := OptimizeSchemeIIICtx(ctx, ev, ops, budget)
				return r.Evaluated, r.Assignment, err
			},
			wantEvaluated: len(ops),
			wantWinner:    components.Uniform(device.OP(0.3, 10)),
		},
		{
			name: "scheme II",
			search: func(ctx context.Context) (int, any, error) {
				r, err := OptimizeSchemeIICtx(ctx, wide, wideOps, 1e-6)
				return r.Evaluated, r.Assignment, err
			},
			wantEvaluated: 2 * len(wideOps),
			wantWinner:    components.Split(top, top),
		},
		{
			name: "scheme I",
			search: func(ctx context.Context) (int, any, error) {
				r, err := OptimizeSchemeICtx(ctx, ev, ops, budget, 0)
				return r.Evaluated, nil, err
			},
			wantEvaluated: int(components.PartCount) * len(ops),
		},
		{
			name: "tuples",
			search: func(ctx context.Context) (int, any, error) {
				r, err := ms.OptimizeTuplesCtx(ctx, TupleBudget{NTox: 1, NVth: 2}, vths, toxs, 1)
				return r.Evaluated, tupleWinner{r.VthSet, r.ToxSet}, err
			},
			// C(3,2) Vth sets x C(2,1) Tox sets, each a 2-point menu
			// scanned over all 2^4 group assignments.
			wantEvaluated: 3 * 2 * 16,
			wantWinner:    tupleWinner{[]float64{0.2, 0.4}, []float64{10}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			evaluated, winner, err := tc.search(t.Context())
			if err != nil {
				t.Fatal(err)
			}
			if evaluated != tc.wantEvaluated {
				t.Errorf("Evaluated = %d, want %d", evaluated, tc.wantEvaluated)
			}
			if tc.wantWinner != nil && !reflect.DeepEqual(winner, tc.wantWinner) {
				t.Errorf("winner = %+v, want the earliest tied candidate %+v", winner, tc.wantWinner)
			}

			ctx, cancel := context.WithCancel(t.Context())
			cancel()
			if _, _, err := tc.search(ctx); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled search: got %v, want context.Canceled", err)
			}
		})
	}
}
