package geom

import (
	"testing"

	"repro/internal/cachecfg"
	"repro/internal/device"
	"repro/internal/sram"
)

// Table-driven sweep over the full design space: every canonical L1 and L2
// organization must organize cleanly and produce self-consistent geometry.
func TestFullDesignSpaceConsistency(t *testing.T) {
	tc := device.Default65nm()
	cell := sram.DefaultCell()
	var cfgs []cachecfg.Config
	for _, s := range cachecfg.L1Sizes() {
		cfgs = append(cfgs, cachecfg.L1(s))
	}
	for _, s := range cachecfg.L2Sizes() {
		cfgs = append(cfgs, cachecfg.L2(s))
	}
	// Off-menu organizations a downstream user might request.
	cfgs = append(cfgs,
		cachecfg.Config{Name: "odd", SizeBytes: 128 * cachecfg.KB, BlockBytes: 128, Assoc: 2, OutputBits: 128},
		cachecfg.Config{Name: "tiny", SizeBytes: 1 * cachecfg.KB, BlockBytes: 16, Assoc: 1, OutputBits: 32},
		cachecfg.Config{Name: "wide", SizeBytes: 64 * cachecfg.KB, BlockBytes: 64, Assoc: 16, OutputBits: 512},
	)

	op := device.OP(0.3, 12)
	for _, cfg := range cfgs {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			a, err := Organize(cfg, cell)
			if err != nil {
				t.Fatalf("Organize: %v", err)
			}
			if a.TotalBits() < cfg.DataBits()+cfg.TagArrayBits() {
				t.Error("organized bits below requirement")
			}
			if a.Rows < 16 || a.Cols < 1 || a.NSub < 1 {
				t.Errorf("degenerate organization %v", a)
			}
			// Physical quantities are positive and ordered sensibly.
			w, h := a.Dimensions(tc, op)
			if w <= 0 || h <= 0 {
				t.Error("non-positive dimensions")
			}
			if a.AreaM2(tc, op) < w*h {
				t.Error("area below raw cell area (overhead lost)")
			}
			if a.BusLength(tc, op) <= 0 || a.WordlineLength(tc, op) <= 0 || a.BitlineLength(tc, op) <= 0 {
				t.Error("non-positive wire lengths")
			}
			// Addressing covers the structure.
			if 1<<a.RowDecodeBits() < a.Rows {
				t.Error("row decode bits insufficient")
			}
			if 1<<a.SubarraySelectBits() < a.NSub {
				t.Error("subarray select bits insufficient")
			}
			// Sense amps can deliver the output width.
			if a.SenseAmps()*a.MuxDegree < cfg.OutputBits {
				t.Error("sense amplifier count cannot cover the output port")
			}
			if act := a.ActiveSubarrays(); act < 1 || act > a.NSub {
				t.Errorf("active subarrays %d out of range", act)
			}
		})
	}
}

// Density: the organized macro should not be wildly less dense than the raw
// cell array (overhead factor bounded), across the whole space.
func TestDensityBound(t *testing.T) {
	tc := device.Default65nm()
	cell := sram.DefaultCell()
	op := device.OP(0.3, 10)
	for _, size := range append(cachecfg.L1Sizes(), cachecfg.L2Sizes()...) {
		for _, cfg := range []cachecfg.Config{cachecfg.L1(size), cachecfg.L2(size)} {
			a, err := Organize(cfg, cell)
			if err != nil {
				t.Fatal(err)
			}
			w, h := cell.Dims(tc, op)
			rawCellArea := float64(a.TotalCells()) * w * h
			total := a.AreaM2(tc, op)
			if factor := total / rawCellArea; factor < 1.1 || factor > 3.0 {
				t.Errorf("%v: area overhead factor %.2f outside [1.1, 3.0]", cfg, factor)
			}
		}
	}
}
