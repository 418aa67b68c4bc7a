// Package transient is a small time-domain circuit solver used to validate
// the analytical delay models of internal/circuit against first-principles
// waveforms: RC networks driven by switch-model transistors, integrated
// with backward Euler.
//
// It plays the role of a spot-check HSPICE run in the paper's flow: the
// closed-form Elmore and effective-current expressions used everywhere else
// are cross-checked here on the exact structures they approximate —
// bitline discharge through a cell's read path, a driver charging a
// distributed wordline, and an inverter chain. This package's own tests
// assert agreement within the expected error band of those
// approximations; no other package imports it.
package transient

import (
	"errors"
	"fmt"
	"math"
)

// Circuit is a lumped network of capacitors (one per node), resistors
// between nodes, and pull devices (switch-model transistors) that drag a
// node toward a rail through an effective resistance.
type Circuit struct {
	names []string
	// capF[i] is node i's capacitance to ground.
	capF []float64
	res  []resistor
	pull []puller
}

type resistor struct {
	a, b int
	ohm  float64
}

// puller models a conducting transistor as a rail voltage behind an
// effective resistance (the switch-level abstraction; adequate for delay).
type puller struct {
	node   int
	railV  float64
	ohm    float64
	signal func(t float64) bool // conducting?
}

// ErrBadNetwork reports an unusable network.
var ErrBadNetwork = errors.New("transient: bad network")

// New creates an empty circuit.
func New() *Circuit { return &Circuit{} }

// AddNode declares a node with a grounded capacitance and returns its index.
func (c *Circuit) AddNode(name string, capF float64) int {
	c.names = append(c.names, name)
	c.capF = append(c.capF, capF)
	return len(c.names) - 1
}

// AddResistor connects two nodes.
func (c *Circuit) AddResistor(a, b int, ohm float64) error {
	if !c.valid(a) || !c.valid(b) || a == b {
		return fmt.Errorf("%w: resistor %d-%d", ErrBadNetwork, a, b)
	}
	if ohm <= 0 {
		return fmt.Errorf("%w: non-positive resistance %v", ErrBadNetwork, ohm)
	}
	c.res = append(c.res, resistor{a: a, b: b, ohm: ohm})
	return nil
}

// AddPull attaches a switch-model device pulling node toward railV through
// ohm whenever signal(t) is true (nil signal = always on).
func (c *Circuit) AddPull(node int, railV, ohm float64, signal func(t float64) bool) error {
	if !c.valid(node) {
		return fmt.Errorf("%w: pull on node %d", ErrBadNetwork, node)
	}
	if ohm <= 0 {
		return fmt.Errorf("%w: non-positive pull resistance %v", ErrBadNetwork, ohm)
	}
	if signal == nil {
		signal = func(float64) bool { return true }
	}
	c.pull = append(c.pull, puller{node: node, railV: railV, ohm: ohm, signal: signal})
	return nil
}

func (c *Circuit) valid(n int) bool { return n >= 0 && n < len(c.names) }

// Waveform is the voltage trajectory of one node.
type Waveform struct {
	TimeS []float64
	V     []float64
}

// CrossingTime returns the first time the waveform crosses the threshold in
// the given direction (rising=false means falling), or an error if it never
// does.
func (w Waveform) CrossingTime(threshold float64, rising bool) (float64, error) {
	for i := 1; i < len(w.V); i++ {
		if rising && w.V[i-1] < threshold && w.V[i] >= threshold ||
			!rising && w.V[i-1] > threshold && w.V[i] <= threshold {
			// Linear interpolation within the step.
			f := (threshold - w.V[i-1]) / (w.V[i] - w.V[i-1])
			return w.TimeS[i-1] + f*(w.TimeS[i]-w.TimeS[i-1]), nil
		}
	}
	return 0, fmt.Errorf("transient: threshold %v never crossed", threshold)
}

// Simulate integrates the network from the initial node voltages over
// duration with the given timestep, returning per-node waveforms. Backward
// Euler via Gauss-Seidel sweeps keeps the integrator unconditionally
// stable for these stiff RC systems.
func (c *Circuit) Simulate(initialV []float64, duration, dt float64) ([]Waveform, error) {
	n := len(c.names)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty circuit", ErrBadNetwork)
	}
	if len(initialV) != n {
		return nil, fmt.Errorf("%w: %d initial voltages for %d nodes", ErrBadNetwork, len(initialV), n)
	}
	if duration <= 0 || dt <= 0 || dt > duration {
		return nil, fmt.Errorf("%w: bad time parameters", ErrBadNetwork)
	}
	for i, cap := range c.capF {
		if cap <= 0 {
			return nil, fmt.Errorf("%w: node %s has non-positive capacitance", ErrBadNetwork, c.names[i])
		}
	}

	steps := int(math.Ceil(duration / dt))
	v := append([]float64(nil), initialV...)
	next := make([]float64, n)
	waves := make([]Waveform, n)
	for i := range waves {
		waves[i].TimeS = append(waves[i].TimeS, 0)
		waves[i].V = append(waves[i].V, v[i])
	}

	// Precompute adjacency for the Gauss-Seidel sweep.
	type link struct {
		other int
		g     float64
	}
	adj := make([][]link, n)
	for _, r := range c.res {
		g := 1 / r.ohm
		adj[r.a] = append(adj[r.a], link{other: r.b, g: g})
		adj[r.b] = append(adj[r.b], link{other: r.a, g: g})
	}
	pullsAt := make([][]puller, n)
	for _, p := range c.pull {
		pullsAt[p.node] = append(pullsAt[p.node], p)
	}

	t := 0.0
	for s := 0; s < steps; s++ {
		t += dt
		copy(next, v)
		// Backward Euler: (C/dt + G) v_next = C/dt v_prev + G_rail*Vrail.
		// Gauss-Seidel iterations on the diagonally dominant system.
		for iter := 0; iter < 50; iter++ {
			maxDelta := 0.0
			for i := 0; i < n; i++ {
				gSum := c.capF[i] / dt
				rhs := c.capF[i] / dt * v[i]
				for _, l := range adj[i] {
					gSum += l.g
					rhs += l.g * next[l.other]
				}
				for _, p := range pullsAt[i] {
					if p.signal(t) {
						g := 1 / p.ohm
						gSum += g
						rhs += g * p.railV
					}
				}
				nv := rhs / gSum
				if d := math.Abs(nv - next[i]); d > maxDelta {
					maxDelta = d
				}
				next[i] = nv
			}
			if maxDelta < 1e-9 {
				break
			}
		}
		copy(v, next)
		for i := range waves {
			waves[i].TimeS = append(waves[i].TimeS, t)
			waves[i].V = append(waves[i].V, v[i])
		}
	}
	return waves, nil
}

// NodeIndex returns the index of a named node, or -1.
func (c *Circuit) NodeIndex(name string) int {
	for i, n := range c.names {
		if n == name {
			return i
		}
	}
	return -1
}

// Nodes returns the number of nodes.
func (c *Circuit) Nodes() int { return len(c.names) }
