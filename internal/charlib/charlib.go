// Package charlib characterizes cache components over the (Vth, Tox) design
// grid, playing the role of the "extensive HSPICE simulation" in Section 3
// of the paper: it produces the sample sets from which the analytical
// leakage and delay models are fitted.
package charlib

import (
	"fmt"

	"repro/internal/components"
	"repro/internal/device"
	"repro/internal/units"
)

// Sample is one characterization point of one component.
type Sample struct {
	Vth  float64 // V
	ToxA float64 // angstroms (the unit used in the paper's equations)

	LeakW float64 // total leakage power, W
	SubW  float64 // subthreshold share, W
	GateW float64 // gate-tunnelling share, W

	DelayS  float64 // component delay, s
	EnergyJ float64 // dynamic energy per access, J
}

// Grid is a rectangular sweep of the two knobs.
type Grid struct {
	Vths  []float64 // volts
	ToxAs []float64 // angstroms
}

// DefaultGrid returns the characterization grid used for model fitting:
// 7 Vth values (50 mV steps) x 9 Tox values (0.5 A steps) = 63 points.
func DefaultGrid() Grid {
	return Grid{
		Vths:  units.GridSteps(0.20, 0.50, 0.05),
		ToxAs: units.GridSteps(10, 14, 0.5),
	}
}

// OptimizationGrid returns the fine discrete grid the paper's optimizer
// walks ("discrete values with small step size"): 5 mV Vth steps and 0.25 A
// Tox steps.
func OptimizationGrid() Grid {
	return Grid{
		Vths:  units.GridSteps(0.20, 0.50, 0.005),
		ToxAs: units.GridSteps(10, 14, 0.25),
	}
}

// CoarseGrid returns a small grid for exhaustive cross-checks in tests.
//
//lint:allow deadexport charlib's, model's and opt's tests cross-check exhaustively on it
func CoarseGrid() Grid {
	return Grid{
		Vths:  units.GridSteps(0.20, 0.50, 0.1),
		ToxAs: units.GridSteps(10, 14, 2),
	}
}

// Points returns the number of grid points.
func (g Grid) Points() int { return len(g.Vths) * len(g.ToxAs) }

// Validate checks the grid is non-empty and sorted.
func (g Grid) Validate() error {
	if len(g.Vths) == 0 || len(g.ToxAs) == 0 {
		return fmt.Errorf("charlib: empty grid")
	}
	for i := 1; i < len(g.Vths); i++ {
		if g.Vths[i] <= g.Vths[i-1] {
			return fmt.Errorf("charlib: Vth grid not increasing at %d", i)
		}
	}
	for i := 1; i < len(g.ToxAs); i++ {
		if g.ToxAs[i] <= g.ToxAs[i-1] {
			return fmt.Errorf("charlib: Tox grid not increasing at %d", i)
		}
	}
	return nil
}

// Characterize sweeps one component over the grid.
func Characterize(comp components.Component, g Grid) ([]Sample, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	out := make([]Sample, 0, g.Points())
	for _, v := range g.Vths {
		for _, x := range g.ToxAs {
			op := device.OP(v, x)
			l := comp.Leakage(op)
			out = append(out, Sample{
				Vth:     v,
				ToxA:    x,
				LeakW:   l.Total(),
				SubW:    l.SubthresholdW,
				GateW:   l.GateW,
				DelayS:  comp.Delay(op),
				EnergyJ: comp.DynamicEnergy(op),
			})
		}
	}
	return out, nil
}

// CharacterizeCache sweeps all four components of a cache.
func CharacterizeCache(c *components.Cache, g Grid) ([components.PartCount][]Sample, error) {
	var out [components.PartCount][]Sample
	for _, p := range components.Parts() {
		s, err := Characterize(c.Part(p), g)
		if err != nil {
			return out, fmt.Errorf("charlib: part %v: %w", p, err)
		}
		out[p] = s
	}
	return out, nil
}
