package opt

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/device"
)

// randomPoints builds a reproducible random point cloud from a seed.
func randomPoints(seed int64, n int) []ParetoPoint {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]ParetoPoint, n)
	for i := range pts {
		pts[i] = ParetoPoint{
			DelayS:   rng.Float64(),
			LeakageW: rng.Float64(),
			OP:       device.OP(0.2+0.3*rng.Float64(), 10+4*rng.Float64()),
		}
	}
	return pts
}

func dominates(a, b ParetoPoint) bool {
	return a.DelayS <= b.DelayS && a.LeakageW <= b.LeakageW &&
		(a.DelayS < b.DelayS || a.LeakageW < b.LeakageW)
}

func TestParetoFrontNoDominatedPointsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		pts := randomPoints(seed, n)
		front := ParetoFront(pts)
		// No front point dominates another front point.
		for i := range front {
			for j := range front {
				if i != j && dominates(front[i], front[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParetoFrontCoversAllPointsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		pts := randomPoints(seed, n)
		front := ParetoFront(pts)
		// Every input point is dominated by (or equal to) some front point.
		for _, p := range pts {
			ok := false
			for _, fp := range front {
				if fp.DelayS <= p.DelayS && fp.LeakageW <= p.LeakageW {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParetoFrontSortedProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%50 + 2
		front := ParetoFront(randomPoints(seed, n))
		return sort.SliceIsSorted(front, func(i, j int) bool {
			return front[i].DelayS < front[j].DelayS
		})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestParetoFrontTiesKeepScanOrder pins the tie rule every knob search
// promises: among candidates with identical (delay, leakage), the front
// keeps the earliest in input order. Forty candidates, twenty exactly
// tied pairs in scrambled delay order, the earlier twin first: below 13
// candidates the sort is an insertion sort, stable by accident.
func TestParetoFrontTiesKeepScanOrder(t *testing.T) {
	var pts []ParetoPoint
	for k := 0; k < 20; k++ {
		d := float64((7*k)%20 + 1)
		for _, tox := range []float64{10, 12} {
			pts = append(pts, ParetoPoint{DelayS: d, LeakageW: 100 - d, OP: device.OP(0.3, tox)})
		}
	}
	front := ParetoFront(pts)
	if len(front) != 20 {
		t.Fatalf("front has %d points, want one per tied pair (20)", len(front))
	}
	for _, p := range front {
		if p.OP != device.OP(0.3, 10) {
			t.Errorf("front point at delay %.0f kept the later twin %+v", p.DelayS, p.OP)
		}
	}
}

func TestParetoFrontIdempotent(t *testing.T) {
	pts := randomPoints(42, 200)
	once := ParetoFront(pts)
	twice := ParetoFront(once)
	if len(once) != len(twice) {
		t.Fatalf("front not idempotent: %d vs %d", len(once), len(twice))
	}
	for i := range once {
		if once[i] != twice[i] {
			t.Fatalf("front changed at %d", i)
		}
	}
}

func TestParetoFrontDoesNotMutateInput(t *testing.T) {
	pts := randomPoints(7, 50)
	copyPts := append([]ParetoPoint(nil), pts...)
	ParetoFront(pts)
	for i := range pts {
		if pts[i] != copyPts[i] {
			t.Fatal("input slice mutated")
		}
	}
}

func TestBestUnderBudgetMatchesLinearScanProperty(t *testing.T) {
	f := func(seed int64, budgetRaw uint8) bool {
		front := ParetoFront(randomPoints(seed, 30))
		budget := float64(budgetRaw) / 255
		got, ok := BestUnderBudget(front, budget)
		// Reference: linear scan.
		var want *ParetoPoint
		for i := range front {
			if front[i].DelayS <= budget {
				if want == nil || front[i].LeakageW < want.LeakageW {
					want = &front[i]
				}
			}
		}
		if want == nil {
			return !ok
		}
		return ok && got == *want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
