package components

import (
	"fmt"

	"repro/internal/circuit"
)

// This file holds extensions beyond the paper's core experiments: the
// drowsy-cell dynamic leakage state (from the paper's related work) and an
// alternative delay-composition model used as an ablation of the paper's
// delay-summation assumption.

// LeakageWithDrowsy returns the cache's leakage when only awakeFraction of
// the cell array is at full supply and the rest sits in the drowsy
// retention state. Periphery, sense amps and drivers are unaffected (they
// must answer instantly). This composes with the paper's static knobs: a
// drowsy cell still benefits from high Vth and thick Tox.
func (c *Cache) LeakageWithDrowsy(a Assignment, awakeFraction float64) (circuit.Leakage, error) {
	if awakeFraction < 0 || awakeFraction > 1 {
		return circuit.Leakage{}, fmt.Errorf("components: awake fraction %v outside [0,1]", awakeFraction)
	}
	var total circuit.Leakage
	for i, part := range c.parts {
		if ca, ok := part.(*cellArray); ok {
			total.Add(ca.leakage(a[i], awakeFraction), 1)
		} else {
			total.Add(part.Leakage(a[i]), 1)
		}
	}
	return total, nil
}

// AccessTimeOverlapped returns the access time under an optimistic
// composition in which the address-bus flight overlaps the row decode
// (address bits stream into per-subarray predecoders as they arrive), so
// only the slower of the two gates the wordline. The paper assumes the
// plain sum; comparing the two quantifies how conservative that assumption
// is (see the delay-composition ablation experiment).
func (c *Cache) AccessTimeOverlapped(a Assignment) float64 {
	addr := c.parts[PartAddrDrivers].Delay(a[PartAddrDrivers])
	dec := c.parts[PartDecoder].Delay(a[PartDecoder])
	arr := c.parts[PartCellArray].Delay(a[PartCellArray])
	data := c.parts[PartDataDrivers].Delay(a[PartDataDrivers])
	front := addr
	if dec > front {
		front = dec
	}
	return front + arr + data
}
