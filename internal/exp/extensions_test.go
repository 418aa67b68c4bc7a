package exp

import (
	"math"
	"strings"
	"testing"
)

func TestModelVsDirectAblation(t *testing.T) {
	tab, err := env(t).ModelVsDirectAblation(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 2 {
		t.Fatalf("too few budgets: %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		ratio := parseCell(row[3])
		// The model-driven optimum should be within ~25% of the direct one;
		// a ratio below 1 is only possible through a small true-budget
		// violation, which must stay within the model's delay error.
		if ratio > 1.25 {
			t.Errorf("budget %s: model penalty %v too high", row[0], ratio)
		}
		if ratio < 0.85 {
			t.Errorf("budget %s: ratio %v below 1 beyond model tolerance", row[0], ratio)
		}
		violation := parseCell(row[4])
		if violation > 1.05 {
			t.Errorf("budget %s: model-opt violates the true budget by %v", row[0], violation)
		}
	}
}

func TestDelayCompositionAblation(t *testing.T) {
	tab, err := env(t).DelayCompositionAblation(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		sum := parseCell(row[2])
		over := parseCell(row[3])
		if over > sum {
			t.Errorf("%s %s: overlapped %v exceeds sum %v", row[0], row[1], over, sum)
		}
		ratio := parseCell(row[4])
		// Overlap saves the shorter of addr/decode: ratio in (1, 2).
		if ratio < 1 || ratio > 2 {
			t.Errorf("%s %s: implausible sum/overlap %v", row[0], row[1], ratio)
		}
	}
}

func TestDrowsyExtension(t *testing.T) {
	tab, err := env(t).DrowsyExtension(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, row := range tab.Rows {
		vals[row[0]] = parseCell(row[2])
	}
	if !(vals["fast knobs + drowsy"] < vals["fast knobs (baseline)"]) {
		t.Error("drowsy mode must cut leakage at fast knobs")
	}
	if !(vals["optimized knobs + drowsy"] < vals["optimized knobs"]) {
		t.Error("drowsy mode must compose with optimized knobs")
	}
	if !(vals["optimized knobs + drowsy"] < vals["fast knobs + drowsy"]) {
		t.Error("static knobs must still matter under drowsy operation")
	}
}

func TestTemperatureSensitivity(t *testing.T) {
	tab, err := env(t).TemperatureSensitivity(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	var prevLeak, prevShare float64
	for i, row := range tab.Rows {
		leak := parseCell(row[1])
		share := parseCell(row[2])
		if i > 0 {
			if leak <= prevLeak {
				t.Errorf("row %d: leakage should rise with temperature", i)
			}
			if share < prevShare-0.02 {
				t.Errorf("row %d: subthreshold share should rise with temperature", i)
			}
		}
		prevLeak, prevShare = leak, share
	}
}

func TestNodeComparison(t *testing.T) {
	tab, err := env(t).NodeComparison(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("want 2 nodes, got %d", len(tab.Rows))
	}
	leak65 := parseCell(tab.Rows[0][1])
	leak45 := parseCell(tab.Rows[1][1])
	if leak45 <= leak65 {
		t.Errorf("45nm projection (%v mW) should leak more than 65nm (%v mW)", leak45, leak65)
	}
	// The intro's claim: at the projected node, per-cycle leakage energy
	// overtakes dynamic energy per access.
	dyn45 := parseCell(tab.Rows[1][3])
	leakE45 := parseCell(tab.Rows[1][4])
	if leakE45 <= dyn45 {
		t.Errorf("45nm leakage/cycle (%v pJ) should exceed dynamic/access (%v pJ)", leakE45, dyn45)
	}
}

func TestReplacementAblation(t *testing.T) {
	tab, err := env(t).ReplacementAblation(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	rates := map[string]float64{}
	for _, row := range tab.Rows {
		rates[row[0]] = parseCell(row[1])
	}
	if len(rates) != 3 {
		t.Fatalf("want 3 policies, got %v", rates)
	}
	// LRU should be at least as good as FIFO and random on a skewed workload.
	if rates["LRU"] > rates["FIFO"]*1.02 || rates["LRU"] > rates["random"]*1.02 {
		t.Errorf("LRU (%v) should not be worse than FIFO (%v) / random (%v)",
			rates["LRU"], rates["FIFO"], rates["random"])
	}
}

func TestAreaTable(t *testing.T) {
	tab, err := env(t).AreaTable(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for i, row := range tab.Rows {
		area := parseCell(row[2])
		if i > 0 && area <= prev {
			t.Errorf("area should grow with Tox: row %d", i)
		}
		prev = area
	}
	// The 14A row should show the documented quadratic penalty.
	last := tab.Rows[len(tab.Rows)-1]
	if ratio := strings.TrimSuffix(last[3], "x"); parseCell(ratio) < 1.1 {
		t.Errorf("area penalty at 14A should be visible, got %s", last[3])
	}
}

func TestSystemEnergyPerInstruction(t *testing.T) {
	tab, err := env(t).SystemEnergyPerInstruction(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string][]float64{}
	for _, row := range tab.Rows {
		vals[row[0]] = []float64{parseCell(row[1]), parseCell(row[2])}
	}
	fast := vals["all fast (0.20V, 10A)"]
	cons := vals["all conservative (0.50V, 14A)"]
	split := vals["paper-style split (cons cells, fast periphery)"]
	if fast == nil || cons == nil || split == nil {
		t.Fatalf("missing rows: %v", vals)
	}
	// Fast knobs give the best CPI; conservative the worst.
	if !(fast[0] < split[0] && split[0] <= cons[0]) {
		t.Errorf("CPI ordering wrong: fast %v split %v cons %v", fast[0], split[0], cons[0])
	}
	// The paper-style split should beat all-fast on energy per instruction.
	if !(split[1] < fast[1]) {
		t.Errorf("split energy %v should beat all-fast %v", split[1], fast[1])
	}
	for name, v := range vals {
		if math.IsNaN(v[0]) || math.IsNaN(v[1]) {
			t.Errorf("%s: unparseable metrics", name)
		}
	}
}

func TestExtensionsBundle(t *testing.T) {
	arts, err := env(t).RunExperimentsCtx(t.Context(), Extensions())
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 10 {
		t.Fatalf("want 10 extension artifacts, got %d", len(arts))
	}
	for _, a := range arts {
		if a.Render() == "" || a.CSV() == "" {
			t.Errorf("artifact %s renders empty", a.ID)
		}
		if !strings.Contains(a.ID, "ablation") && !strings.Contains(a.ID, "ext") {
			t.Errorf("extension artifact %s lacks the naming convention", a.ID)
		}
	}
}

func TestJointOptimizationTable(t *testing.T) {
	tab, err := env(t).JointOptimization(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		pinned := parseCell(row[1])
		joint := parseCell(row[2])
		if math.IsNaN(joint) {
			t.Errorf("budget %s: joint infeasible", row[0])
			continue
		}
		if !math.IsNaN(pinned) && joint > pinned*(1+1e-6) {
			t.Errorf("budget %s: joint (%v) worse than pinned (%v)", row[0], joint, pinned)
		}
	}
}

func TestMemorySensitivityTable(t *testing.T) {
	tab, err := env(t).MemorySensitivity(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("want 2 memory specs, got %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[4] != "yes" {
			t.Errorf("%s: Vth-knob ordering did not survive (row %v)", row[0], row)
		}
	}
}
