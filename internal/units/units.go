// Package units provides physical constants, unit conversion helpers, and
// value formatting used throughout the cache leakage models.
//
// Internally the library works in SI units: volts, amperes, watts, seconds,
// joules, metres, kelvin. This package centralises the handful of scale
// factors (angstroms, picoseconds, picojoules, milliwatts, ...) so that the
// rest of the code never multiplies by bare powers of ten.
package units

import (
	"fmt"
	"math"
)

// Fundamental physical constants (SI).
const (
	// BoltzmannJPerK is the Boltzmann constant in joules per kelvin.
	BoltzmannJPerK = 1.380649e-23
	// ElectronCharge is the elementary charge in coulombs.
	ElectronCharge = 1.602176634e-19
	// VacuumPermittivity is epsilon_0 in farads per metre.
	VacuumPermittivity = 8.8541878128e-12
	// SiO2RelativePermittivity is the relative permittivity of silicon dioxide.
	SiO2RelativePermittivity = 3.9
)

// Length scale factors, in metres.
const (
	Angstrom   = 1e-10
	Nanometre  = 1e-9
	Micrometre = 1e-6
)

// Time scale factors, in seconds.
const (
	Picosecond = 1e-12
	Nanosecond = 1e-9
)

// Power and energy scale factors.
const (
	Milliwatt  = 1e-3
	Microwatt  = 1e-6
	Nanowatt   = 1e-9
	Picojoule  = 1e-12
	Femtojoule = 1e-15
)

// ThermalVoltage returns kT/q in volts at the given temperature in kelvin.
func ThermalVoltage(tempK float64) float64 {
	return BoltzmannJPerK * tempK / ElectronCharge
}

// OxideCapacitancePerArea returns the SiO2 parallel-plate capacitance per
// unit area (F/m^2) for an electrical oxide thickness given in metres.
func OxideCapacitancePerArea(toxM float64) float64 {
	return SiO2RelativePermittivity * VacuumPermittivity / toxM
}

// ToPS converts seconds to picoseconds.
func ToPS(s float64) float64 { return s / Picosecond }

// FromPS converts picoseconds to seconds.
func FromPS(ps float64) float64 { return ps * Picosecond }

// ToMW converts watts to milliwatts.
func ToMW(w float64) float64 { return w / Milliwatt }

// ToPJ converts joules to picojoules.
func ToPJ(j float64) float64 { return j / Picojoule }

// ToAngstrom converts metres to angstroms.
func ToAngstrom(m float64) float64 { return m / Angstrom }

// FromAngstrom converts angstroms to metres.
func FromAngstrom(a float64) float64 { return a * Angstrom }

// FormatSI formats v with an SI prefix and the given unit suffix, e.g.
// FormatSI(1.3e-3, "W") == "1.300mW". Values of exactly zero format as "0unit".
func FormatSI(v float64, unit string) string {
	if v == 0 {
		return "0" + unit
	}
	abs := math.Abs(v)
	type prefix struct {
		factor float64
		name   string
	}
	prefixes := []prefix{
		{1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "k"},
		{1, ""},
		{1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"}, {1e-18, "a"},
	}
	for _, p := range prefixes {
		if abs >= p.factor {
			return fmt.Sprintf("%.3g%s%s", v/p.factor, p.name, unit)
		}
	}
	return fmt.Sprintf("%.3g%s", v, unit)
}

// ApproxEqual reports whether a and b agree to within rel relative tolerance
// (or abs absolute tolerance near zero).
//
//lint:allow deadexport the float comparisons of tests across the module
func ApproxEqual(a, b, rel, abs float64) bool {
	d := math.Abs(a - b)
	if d <= abs {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= rel*m
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
// n must be >= 2; Linspace panics otherwise because a degenerate grid is
// always a programming error in this library.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("units: Linspace requires n >= 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi // avoid accumulated rounding at the endpoint
	return out
}

// GridSteps returns the inclusive grid from lo to hi with the given step.
// The last point is forced to hi when the step does not divide the range
// exactly within floating-point tolerance.
func GridSteps(lo, hi, step float64) []float64 {
	if step <= 0 {
		panic("units: GridSteps requires step > 0")
	}
	if hi < lo {
		panic("units: GridSteps requires hi >= lo")
	}
	n := int(math.Floor((hi-lo)/step + 1e-9))
	out := make([]float64, 0, n+1)
	for i := 0; i <= n; i++ {
		out = append(out, lo+float64(i)*step)
	}
	if last := out[len(out)-1]; math.Abs(last-hi) > step*1e-6 && last < hi {
		out = append(out, hi)
	} else {
		out[len(out)-1] = hi
	}
	return out
}
