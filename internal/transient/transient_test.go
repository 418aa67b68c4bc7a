package transient

import (
	"math"
	"testing"

	"repro/internal/cachecfg"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/sram"
	"repro/internal/units"
)

func TestSingleRCDischarge(t *testing.T) {
	// A 1pF node discharged through 1kohm: V(t) = e^{-t/RC}, tau = 1ns.
	c := New()
	n := c.AddNode("cap", 1e-12)
	if err := c.AddPull(n, 0, 1000, nil); err != nil {
		t.Fatal(err)
	}
	waves, err := c.Simulate([]float64{1}, 5e-9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	// Check against the closed form at several points.
	w := waves[n]
	for _, frac := range []float64{0.2, 0.5, 0.8} {
		idx := int(frac * float64(len(w.V)-1))
		want := math.Exp(-w.TimeS[idx] / 1e-9)
		if math.Abs(w.V[idx]-want) > 0.01 {
			t.Errorf("V(%v) = %v, want %v", w.TimeS[idx], w.V[idx], want)
		}
	}
	// 50% crossing at t = RC ln 2.
	cross, err := w.CrossingTime(0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	want := 1e-9 * math.Ln2
	if !units.ApproxEqual(cross, want, 0.02, 0) {
		t.Errorf("50%% crossing = %v, want %v", cross, want)
	}
}

func TestRCCharging(t *testing.T) {
	c := New()
	n := c.AddNode("cap", 1e-12)
	if err := c.AddPull(n, 1.0, 1000, nil); err != nil {
		t.Fatal(err)
	}
	waves, err := c.Simulate([]float64{0}, 5e-9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := waves[n].CrossingTime(0.63212, true) // 1 - 1/e at t = tau
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(cross, 1e-9, 0.02, 0) {
		t.Errorf("tau crossing = %v, want 1ns", cross)
	}
}

func TestDistributedWireMatchesElmoreBand(t *testing.T) {
	// A 5-segment distributed RC wire driven from a source resistance:
	// Elmore predicts the 50% delay within its usual ~5-15% optimism for
	// distributed lines.
	const (
		rDrive = 5e3
		rWire  = 2e3
		cWire  = 100e-15
		cLoad  = 50e-15
		nSeg   = 5
	)
	c := New()
	var nodes []int
	for i := 0; i < nSeg; i++ {
		capacitance := cWire / nSeg
		if i == nSeg-1 {
			capacitance += cLoad
		}
		nodes = append(nodes, c.AddNode("seg", capacitance))
	}
	if err := c.AddPull(nodes[0], 1.0, rDrive, nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < nSeg; i++ {
		if err := c.AddResistor(nodes[i-1], nodes[i], rWire/nSeg); err != nil {
			t.Fatal(err)
		}
	}
	waves, err := c.Simulate(make([]float64, nSeg), 20e-9, 2e-12)
	if err != nil {
		t.Fatal(err)
	}
	got, err := waves[nodes[nSeg-1]].CrossingTime(0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	elmore := 0.69*rDrive*(cWire+cLoad) + 0.38*rWire*cWire + 0.69*rWire*cLoad
	ratio := got / elmore
	if ratio < 0.75 || ratio > 1.25 {
		t.Errorf("transient 50%% delay %v vs Elmore %v (ratio %v)", got, elmore, ratio)
	}
}

func TestBitlineDischargeValidatesAnalyticModel(t *testing.T) {
	// Build the actual bitline the cell-array delay model assumes — the
	// full-column capacitance discharged by the cell's read current — and
	// check the analytic time C*dV/I against the simulated waveform.
	tech := device.Default65nm()
	cell := sram.DefaultCell()
	arr, err := geom.Organize(cachecfg.L1(16*cachecfg.KB), cell)
	if err != nil {
		t.Fatal(err)
	}

	for _, op := range []device.OperatingPoint{device.OP(0.20, 10), device.OP(0.50, 14)} {
		cbl := cell.BitlineCapPerCell(tech, op)*float64(arr.Rows) +
			tech.JunctionCap(4*tech.WMin, op) + tech.GateCap(4*tech.WMin, op)
		iread := cell.ReadCurrent(tech, op)
		// Switch-model pull: the cell pulls the bitline down with an
		// effective resistance matched to its small-swing current at Vdd
		// (linearized around the precharged state, valid for a 10% swing).
		rCell := tech.Vdd / iread

		c := New()
		bl := c.AddNode("bitline", cbl)
		if err := c.AddPull(bl, 0, rCell, nil); err != nil {
			t.Fatal(err)
		}
		analytic := cbl * (sram.BitlineSwing * tech.Vdd) / iread
		waves, err := c.Simulate([]float64{tech.Vdd}, 10*analytic, analytic/500)
		if err != nil {
			t.Fatal(err)
		}
		got, err := waves[bl].CrossingTime(tech.Vdd*(1-sram.BitlineSwing), false)
		if err != nil {
			t.Fatal(err)
		}
		// For a 10% swing the linear-current approximation holds within ~6%
		// (the exponential's curvature over the first decile).
		if !units.ApproxEqual(got, analytic, 0.08, 0) {
			t.Errorf("%v: transient bitline delay %v vs analytic %v", op, got, analytic)
		}
	}
}

func TestWordlineChainDelayWithinBand(t *testing.T) {
	// The component model's wordline stage: driver resistance into the
	// distributed wordline. The transient result should bracket the
	// Elmore+effective-current estimate within ~30%.
	tech := device.Default65nm()
	cell := sram.DefaultCell()
	arr, err := geom.Organize(cachecfg.L1(16*cachecfg.KB), cell)
	if err != nil {
		t.Fatal(err)
	}
	op := device.OP(0.25, 11)

	cwl := cell.WordlineCapPerCell(tech, op) * float64(arr.Cols)
	wlLen := arr.WordlineLength(tech, op)
	rWire := tech.WireRPerM * wlLen
	// A driver sized for effort ~4 into the wordline.
	wDrive := 40 * tech.WMin
	rDrive := tech.DriveResistance(device.NMOS, wDrive, op)

	const nSeg = 8
	c := New()
	var nodes []int
	for i := 0; i < nSeg; i++ {
		nodes = append(nodes, c.AddNode("wl", cwl/nSeg))
	}
	if err := c.AddPull(nodes[0], tech.Vdd, rDrive, nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < nSeg; i++ {
		if err := c.AddResistor(nodes[i-1], nodes[i], rWire/nSeg); err != nil {
			t.Fatal(err)
		}
	}
	estimate := 0.69*rDrive*cwl + 0.38*rWire*cwl
	waves, err := c.Simulate(make([]float64, nSeg), 20*estimate, estimate/200)
	if err != nil {
		t.Fatal(err)
	}
	got, err := waves[nodes[nSeg-1]].CrossingTime(tech.Vdd/2, true)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := got / estimate; ratio < 0.7 || ratio > 1.3 {
		t.Errorf("wordline transient %v vs estimate %v (ratio %v)", got, estimate, ratio)
	}
}

func TestGatedPull(t *testing.T) {
	// A pull that turns on at t=1ns leaves the node untouched before then.
	c := New()
	n := c.AddNode("x", 1e-12)
	if err := c.AddPull(n, 1, 1000, func(t float64) bool { return t >= 1e-9 }); err != nil {
		t.Fatal(err)
	}
	waves, err := c.Simulate([]float64{0}, 4e-9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	w := waves[n]
	idx := len(w.V) / 4 // ~1ns
	if w.V[idx-10] > 0.01 {
		t.Errorf("node moved before the gate opened: %v", w.V[idx-10])
	}
	if w.V[len(w.V)-1] < 0.9 {
		t.Errorf("node failed to charge after gating: %v", w.V[len(w.V)-1])
	}
}

func TestErrorPaths(t *testing.T) {
	c := New()
	n := c.AddNode("a", 1e-15)
	if err := c.AddResistor(n, n, 100); err == nil {
		t.Error("self-loop accepted")
	}
	if err := c.AddResistor(n, 99, 100); err == nil {
		t.Error("dangling resistor accepted")
	}
	if err := c.AddResistor(n, n, -5); err == nil {
		t.Error("negative resistance accepted")
	}
	if err := c.AddPull(42, 1, 100, nil); err == nil {
		t.Error("pull on missing node accepted")
	}
	if err := c.AddPull(n, 1, 0, nil); err == nil {
		t.Error("zero pull resistance accepted")
	}
	if _, err := c.Simulate([]float64{1, 2}, 1e-9, 1e-12); err == nil {
		t.Error("mismatched initial voltages accepted")
	}
	if _, err := c.Simulate([]float64{1}, 0, 1e-12); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := New().Simulate(nil, 1e-9, 1e-12); err == nil {
		t.Error("empty circuit accepted")
	}
	bad := New()
	bad.AddNode("zerocap", 0)
	if _, err := bad.Simulate([]float64{0}, 1e-9, 1e-12); err == nil {
		t.Error("zero capacitance accepted")
	}
}

func TestChargeConservationTwoCaps(t *testing.T) {
	// Two equal caps connected by a resistor equilibrate to the mean.
	c := New()
	a := c.AddNode("a", 1e-12)
	b := c.AddNode("b", 1e-12)
	if err := c.AddResistor(a, b, 1000); err != nil {
		t.Fatal(err)
	}
	waves, err := c.Simulate([]float64{1, 0}, 20e-9, 5e-12)
	if err != nil {
		t.Fatal(err)
	}
	va := waves[a].V[len(waves[a].V)-1]
	vb := waves[b].V[len(waves[b].V)-1]
	if !units.ApproxEqual(va, 0.5, 0.02, 0) || !units.ApproxEqual(vb, 0.5, 0.02, 0) {
		t.Errorf("caps did not equilibrate: %v, %v", va, vb)
	}
}

func TestNodeIndex(t *testing.T) {
	c := New()
	c.AddNode("x", 1e-15)
	c.AddNode("y", 1e-15)
	if c.NodeIndex("y") != 1 || c.NodeIndex("missing") != -1 || c.Nodes() != 2 {
		t.Error("node bookkeeping broken")
	}
}
