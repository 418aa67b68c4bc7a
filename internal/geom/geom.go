// Package geom organizes a cache's bits into physical SRAM subarrays and
// derives the geometric quantities the electrical models need: wordline and
// bitline lengths, array dimensions, bus routing lengths, sense-amplifier
// counts, and total area.
//
// The organization heuristic follows the CACTI tradition: the storage (data
// plus tag bits) is partitioned into subarrays of roughly 64 Kbit
// (128 rows x 512 columns) so that neither wordlines nor bitlines grow with
// total capacity; capacity instead adds subarrays, lengthening the routing
// (address/data bus) instead. Cell dimensions — and therefore every wire
// length — scale with Tox through the technology's ScaleFactor, which is how
// the paper's "cell grows in both dimensions" rule reaches the delay and
// energy models.
package geom

import (
	"fmt"
	"math"

	"repro/internal/cachecfg"
	"repro/internal/device"
	"repro/internal/sram"
)

// Array is a physical organization of one cache.
type Array struct {
	Cfg  cachecfg.Config
	Cell sram.CellParams

	NSub int // number of identical subarrays (power of two)
	Rows int // wordlines per subarray
	Cols int // bitline pairs per subarray

	// MuxDegree is the column multiplexing factor: bitline pairs per sense
	// amplifier.
	MuxDegree int
}

// targetSubarrayBits is the preferred subarray capacity (128 x 512).
const targetSubarrayBits = 128 * 512

// maxSubarrays bounds the partitioning for very large caches.
const maxSubarrays = 512

// periMeterOverhead multiplies raw cell area to account for decoders,
// drivers, sense amps and routing channels.
const perimeterOverhead = 1.35

// Organize partitions the cache into subarrays.
func Organize(cfg cachecfg.Config, cell sram.CellParams) (Array, error) {
	if err := cfg.Validate(); err != nil {
		return Array{}, err
	}
	total := cfg.DataBits() + cfg.TagArrayBits()

	nsub := 1
	for total/nsub > targetSubarrayBits && nsub < maxSubarrays {
		nsub *= 2
	}
	perSub := (total + nsub - 1) / nsub

	rows := 128
	if perSub < 128*128 {
		// Small arrays: keep the subarray roughly square in bit count.
		rows = pow2Floor(int(math.Sqrt(float64(perSub))))
		if rows < 16 {
			rows = 16
		}
	}
	cols := (perSub + rows - 1) / rows
	if cols < 1 {
		cols = 1
	}

	a := Array{Cfg: cfg, Cell: cell, NSub: nsub, Rows: rows, Cols: cols, MuxDegree: 4}
	return a, nil
}

// TotalBits returns the number of stored bits implied by the organization
// (>= data+tag bits due to rounding).
func (a Array) TotalBits() int { return a.NSub * a.Rows * a.Cols }

// TotalCells returns the number of 6T cells.
func (a Array) TotalCells() int { return a.TotalBits() }

// WordlineLength returns the length of one subarray wordline at the
// operating point.
func (a Array) WordlineLength(t *device.Technology, op device.OperatingPoint) float64 {
	w, _ := a.Cell.Dims(t, op)
	return float64(a.Cols) * w
}

// BitlineLength returns the length of one subarray bitline at the operating
// point.
func (a Array) BitlineLength(t *device.Technology, op device.OperatingPoint) float64 {
	_, h := a.Cell.Dims(t, op)
	return float64(a.Rows) * h
}

// subarrayGrid returns the (gx, gy) tiling of subarrays.
func (a Array) subarrayGrid() (int, int) {
	gx := pow2Floor(int(math.Sqrt(float64(a.NSub))))
	if gx < 1 {
		gx = 1
	}
	gy := (a.NSub + gx - 1) / gx
	return gx, gy
}

// Dimensions returns the overall array width and height (m), including a
// 20% routing pitch between subarrays.
func (a Array) Dimensions(t *device.Technology, op device.OperatingPoint) (w, h float64) {
	gx, gy := a.subarrayGrid()
	cw, ch := a.Cell.Dims(t, op)
	const pitch = 1.2
	w = pitch * float64(gx) * float64(a.Cols) * cw
	h = pitch * float64(gy) * float64(a.Rows) * ch
	return w, h
}

// AreaM2 returns the estimated total silicon area (m^2) including peripheral
// overhead. Area grows quadratically with Tox through the cell dimensions —
// the cost the paper warns about when thickening the oxide.
func (a Array) AreaM2(t *device.Technology, op device.OperatingPoint) float64 {
	w, h := a.Dimensions(t, op)
	return perimeterOverhead * w * h
}

// BusLength returns the routing length of the address/data buses: half the
// array perimeter (edge of the macro to its centre and out again).
func (a Array) BusLength(t *device.Technology, op device.OperatingPoint) float64 {
	w, h := a.Dimensions(t, op)
	return (w + h) / 2
}

// ActiveSubarrays returns how many subarrays participate in one access:
// enough columns to deliver OutputBits through the column mux, at least one.
func (a Array) ActiveSubarrays() int {
	needed := a.Cfg.OutputBits * a.MuxDegree
	n := (needed + a.Cols - 1) / a.Cols
	if n < 1 {
		n = 1
	}
	if n > a.NSub {
		n = a.NSub
	}
	return n
}

// SenseAmps returns the total number of sense amplifiers (one per MuxDegree
// bitline pairs in every subarray).
func (a Array) SenseAmps() int {
	perSub := (a.Cols + a.MuxDegree - 1) / a.MuxDegree
	return perSub * a.NSub
}

// RowDecodeBits returns the per-subarray row-address width.
func (a Array) RowDecodeBits() int { return log2Ceil(a.Rows) }

// SubarraySelectBits returns the subarray-select address width.
func (a Array) SubarraySelectBits() int { return log2Ceil(a.NSub) }

// AddressBits returns the number of address bits the decoder must receive.
func (a Array) AddressBits() int { return a.RowDecodeBits() + a.SubarraySelectBits() }

// String summarizes the organization.
func (a Array) String() string {
	return fmt.Sprintf("%v: %d x (%d rows x %d cols), mux %d:1",
		a.Cfg, a.NSub, a.Rows, a.Cols, a.MuxDegree)
}

func pow2Floor(v int) int {
	p := 1
	for p*2 <= v {
		p *= 2
	}
	return p
}

func log2Ceil(v int) int {
	n := 0
	for (1 << n) < v {
		n++
	}
	return n
}
