// Package amat computes the average memory access time and the total
// energy-per-access objective used in Section 5 of the paper.
//
// AMAT follows the standard recursion
//
//	AMAT = t_L1 + m_L1 * (t_L2 + m_L2 * t_mem)
//
// with t the hit (access) times and m the local miss rates. The total
// energy of one average access charges each level's dynamic energy at the
// frequency it is exercised, main-memory energy per L2 miss, and every
// level's leakage power over the AMAT window (leakage accrues whether or
// not the level is hit — that is what makes oversized, leaky L2s lose).
package amat

import (
	"fmt"

	"repro/internal/mem"
)

// LevelStats describes one cache level's electrical and architectural state
// under a particular knob assignment.
type LevelStats struct {
	Name string
	// AccessTimeS is the level's hit time.
	AccessTimeS float64
	// LocalMissRate is the level's local miss rate under the workload.
	LocalMissRate float64
	// DynamicEnergyJ is the energy of one access to this level.
	DynamicEnergyJ float64
	// LeakageW is the level's total leakage power.
	LeakageW float64
}

// Validate reports inconsistent inputs.
func (l LevelStats) Validate() error {
	if l.AccessTimeS <= 0 {
		return fmt.Errorf("amat: %s: non-positive access time", l.Name)
	}
	if l.LocalMissRate < 0 || l.LocalMissRate > 1 {
		return fmt.Errorf("amat: %s: miss rate %v outside [0,1]", l.Name, l.LocalMissRate)
	}
	if l.DynamicEnergyJ < 0 || l.LeakageW < 0 {
		return fmt.Errorf("amat: %s: negative energy or leakage", l.Name)
	}
	return nil
}

// System is a two-level cache hierarchy backed by main memory.
type System struct {
	L1  LevelStats
	L2  LevelStats
	Mem mem.Spec
}

// Validate checks all levels.
func (s System) Validate() error {
	if err := s.L1.Validate(); err != nil {
		return err
	}
	if err := s.L2.Validate(); err != nil {
		return err
	}
	return s.Mem.Validate()
}

// AMAT returns the average memory access time (s).
func (s System) AMAT() float64 {
	return s.L1.AccessTimeS + s.L1.LocalMissRate*(s.L2.AccessTimeS+s.L2.LocalMissRate*s.Mem.LatencyS)
}

// LeakageW returns the hierarchy's total cache leakage power (the quantity
// minimized in the paper's two-level experiments; main-memory standby power
// is reported separately).
func (s System) LeakageW() float64 {
	return s.L1.LeakageW + s.L2.LeakageW
}

// DynamicEnergyJ returns the dynamic energy of one average access: L1 every
// access, L2 on L1 misses, memory on L2 misses.
func (s System) DynamicEnergyJ() float64 {
	return s.L1.DynamicEnergyJ +
		s.L1.LocalMissRate*(s.L2.DynamicEnergyJ+s.L2.LocalMissRate*s.Mem.EnergyJ)
}

// TotalEnergyJ returns the total energy attributed to one average access:
// dynamic energy plus all leakage (and memory standby) integrated over the
// AMAT window. This is the Figure 2 objective ("Total Energy (pJ)" vs
// "AMAT (pS)").
func (s System) TotalEnergyJ() float64 {
	window := s.AMAT()
	return s.DynamicEnergyJ() + (s.LeakageW()+s.Mem.StandbyW)*window
}
