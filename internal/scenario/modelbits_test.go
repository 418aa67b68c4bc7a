package scenario

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cachecfg"
	"repro/internal/components"
	"repro/internal/core"
	"repro/internal/device"
)

const modelBitsPath = "testdata/modelbits.golden"

// modelBitsOPs are the three operating points of components'
// TestGoldenCorners: the fastest, a middle and the slowest corner.
var modelBitsOPs = []device.OperatingPoint{device.OP(0.2, 10), device.OP(0.35, 12), device.OP(0.5, 14)}

// TestModelBitsGolden pins the model layer to its float64 bits for every
// organization Validate admits: cachecfg.L1 and cachecfg.L2 at every power
// of two from 1 KB to MaxCacheKB. Each line names one organization and
// part and records, in hex, the fitted coefficients and the netlist's
// subthreshold and gate leakage, delay and dynamic energy at modelBitsOPs;
// one more line per organization records LeakageWithDrowsy at awake 0.1
// and 0.5. A refactor or a speedup of the model must leave every bit in
// place; a diff of the file names what moved. `make golden` regenerates it
// (-update). It reads through core's memo, so the designs
// TestFitQualityContract builds are shared.
//
// Fused multiply-add, which the compiler may emit on other architectures,
// changes last bits, so the file pins amd64.
func TestModelBitsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden pins amd64 float bits; GOARCH is %s", runtime.GOARCH)
	}
	var b strings.Builder
	for _, level := range []func(int) cachecfg.Config{cachecfg.L1, cachecfg.L2} {
		for kb := 1; kb <= MaxCacheKB; kb *= 2 {
			cfg := level(kb * cachecfg.KB)
			d, err := core.SharedDesign(cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", cfg.Name, cfg, err)
			}
			org := cfg.Name + " " + cfg.String()
			for _, p := range components.Parts() {
				m := d.Model.Comps[p]
				part := d.Cache.Part(p)
				fmt.Fprintf(&b, "%s %v", org, p)
				writeBits(&b, "A0", m.Leak.A0, "A1", m.Leak.A1, "Alpha1", m.Leak.Alpha1, "A2", m.Leak.A2, "Alpha2", m.Leak.Alpha2)
				writeBits(&b, "K0", m.Delay.K0, "K1", m.Delay.K1, "K3", m.Delay.K3, "K2", m.Delay.K2)
				writeBits(&b, "E0", m.Energy.E0, "E1", m.Energy.E1)
				for _, op := range modelBitsOPs {
					l := part.Leakage(op)
					fmt.Fprintf(&b, " |%.2fV/%.0fA", op.Vth, op.ToxAngstrom())
					writeBits(&b, "sub", l.SubthresholdW, "gate", l.GateW, "delay", part.Delay(op), "energy", part.DynamicEnergy(op))
				}
				b.WriteByte('\n')
			}
			fmt.Fprintf(&b, "%s drowsy", org)
			for _, op := range modelBitsOPs {
				fmt.Fprintf(&b, " |%.2fV/%.0fA", op.Vth, op.ToxAngstrom())
				for _, awake := range []float64{0.1, 0.5} {
					l, err := d.Cache.LeakageWithDrowsy(components.Uniform(op), awake)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&b, " awake%.1f", awake)
					writeBits(&b, "sub", l.SubthresholdW, "gate", l.GateW)
				}
			}
			b.WriteByte('\n')
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(modelBitsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(modelBitsPath)
	if err != nil {
		t.Fatalf("%v (run `make golden` to create it)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d moved:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// writeBits appends " name=<float64 bits in hex>" for each name, value pair.
func writeBits(b *strings.Builder, pairs ...any) {
	for i := 0; i < len(pairs); i += 2 {
		fmt.Fprintf(b, " %s=%016x", pairs[i], math.Float64bits(pairs[i+1].(float64)))
	}
}
