package device_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/opt"
	"repro/internal/units"
)

// TestOperatingPointStringMatchesFmt holds String to the fmt format it
// replaced, byte for byte: every point of the knob grid, every product of
// the coarse tuple menu, and edge values in both knobs (signed zero,
// halfway cases at both precisions, infinities, NaN, and a value past
// %f's exponent switch in other verbs).
func TestOperatingPointStringMatchesFmt(t *testing.T) {
	ops := append([]device.OperatingPoint(nil), core.SharedKnobGrid()...)
	ops = append(ops, opt.PairsFromGrid(opt.CoarseMenu())...)
	edges := []float64{math.Copysign(0, -1), 0.125, 0.375, 0.005, 12.25, 12.35,
		math.Inf(1), math.Inf(-1), math.NaN(), 1e21}
	for _, v := range edges {
		for _, x := range edges {
			ops = append(ops, device.OperatingPoint{Vth: v, ToxM: units.FromAngstrom(x)})
		}
	}
	for _, op := range ops {
		want := fmt.Sprintf("(Vth=%.2fV, Tox=%.1fA)", op.Vth, op.ToxAngstrom())
		if got := op.String(); got != want {
			t.Errorf("%#v: String() = %q, want %q", op, got, want)
		}
	}
}
