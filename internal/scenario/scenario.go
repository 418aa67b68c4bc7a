// Package scenario provides JSON-driven experiment configurations: a user
// describes a cache hierarchy, a workload, and optimization targets in a
// small config file, and the scenario runner assembles the corresponding
// models, simulations and optimizations (cmd/scenario is the CLI front
// end). This is the "downstream user" interface: reproducing the paper's
// exact experiments goes through cmd/figures instead.
package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cachecfg"
	"repro/internal/components"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/opt"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// MaxCacheKB caps each cache level a config may name at 64 MB, sixteen
// times the paper's largest L2: a simulated 64 MB L2 holds ~35 MB, while
// an uncapped size could run a worker out of memory.
const MaxCacheKB = 64 * 1024

// Config is the JSON schema of one scenario.
type Config struct {
	// Name labels the run.
	Name string `json:"name"`
	// L1KB and L2KB are the cache capacities in kilobytes: powers of two
	// from 1 to MaxCacheKB (valid cachecfg.L1 and cachecfg.L2 sizes).
	L1KB int `json:"l1_kb"`
	L2KB int `json:"l2_kb"`
	// Workload is one of spec2000, specweb, tpcc, or average.
	Workload string `json:"workload"`
	// Accesses per workload simulation (default 400000, at most
	// profile.MaxAccesses).
	Accesses int `json:"accesses,omitempty"`
	// Seed for the synthetic workloads (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Scheme is the assignment scheme for knob optimization: 1, 2 or 3
	// (default 2, the paper's preferred scheme).
	Scheme int `json:"scheme,omitempty"`
	// AMATBudgetPS is the AMAT constraint in picoseconds; 0 picks the
	// midpoint of the feasible range.
	AMATBudgetPS float64 `json:"amat_budget_ps,omitempty"`
	// TupleBudgets optionally requests Figure-2-style tuple optimizations,
	// each entry [nTox, nVth].
	TupleBudgets [][2]int `json:"tuple_budgets,omitempty"`
	// FastMemory selects the low-latency DRAM spec.
	FastMemory bool `json:"fast_memory,omitempty"`
	// Fidelity selects the miss-rate path: "trace" (or empty, the
	// default) runs the trace-driven simulator; "analytical" uses the
	// stack-distance fast path of internal/profile, which agrees with
	// the simulator within profile.Tolerance and turns per-point
	// simulation cost into a one-off per-workload profiling pass. The
	// field is deliberately not defaulted to "trace" by withDefaults so
	// pre-fidelity batches keep their content hashes; a set value flows
	// into the hash and pins journals and fleets to one fidelity.
	Fidelity string `json:"fidelity,omitempty"`
}

// Validate reports schema errors; a config it accepts can run. Each check
// reads one field, so a grid proves its points valid per axis value.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if c.L1KB <= 0 || c.L2KB <= 0 {
		return fmt.Errorf("scenario: cache sizes must be positive, got %d/%d KB", c.L1KB, c.L2KB)
	}
	if c.L1KB > MaxCacheKB || c.L2KB > MaxCacheKB { // before the KB multiply: no overflow
		return fmt.Errorf("scenario: cache sizes %d/%d KB above the cap of %d KB", c.L1KB, c.L2KB, MaxCacheKB)
	}
	if err := cachecfg.L1(c.L1KB * cachecfg.KB).Validate(); err != nil {
		return fmt.Errorf("scenario: l1_kb %d: %w", c.L1KB, err)
	}
	if err := cachecfg.L2(c.L2KB * cachecfg.KB).Validate(); err != nil {
		return fmt.Errorf("scenario: l2_kb %d: %w", c.L2KB, err)
	}
	switch c.Workload {
	case "spec2000", "specweb", "tpcc", "average":
	default:
		return fmt.Errorf("scenario: unknown workload %q", c.Workload)
	}
	if c.Accesses < 0 {
		return fmt.Errorf("scenario: accesses must not be negative, got %d", c.Accesses)
	}
	if c.Accesses > profile.MaxAccesses {
		return fmt.Errorf("scenario: accesses %d above the cap of %d", c.Accesses, profile.MaxAccesses)
	}
	if c.Scheme < 0 || c.Scheme > 3 {
		return fmt.Errorf("scenario: scheme must be 1, 2 or 3, got %d", c.Scheme)
	}
	vths, toxs := opt.CoarseMenu()
	for _, b := range c.TupleBudgets {
		if err := (opt.TupleBudget{NTox: b[0], NVth: b[1]}).Validate(len(vths), len(toxs)); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if !profile.ValidFidelity(c.Fidelity) {
		return fmt.Errorf("scenario: unknown fidelity %q (want %q or %q)",
			c.Fidelity, profile.FidelityTrace, profile.FidelityAnalytical)
	}
	return nil
}

// WithDefaults returns the config with every optional field filled exactly
// as Load and RunCtx fill it. Grid expansion (internal/grid) renders point
// names and wire payloads from defaulted configs, so a worker rebuilding a
// grid slice executes byte-for-byte the configs the coordinator named.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// withDefaults fills optional fields.
func (c Config) withDefaults() Config {
	if c.Accesses == 0 {
		c.Accesses = 400_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scheme == 0 {
		c.Scheme = 2
	}
	return c
}

// Load parses a JSON scenario, rejecting unknown fields so typos fail loud.
func Load(r io.Reader) (Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("scenario: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c.withDefaults(), nil
}

// Result is the outcome of one scenario run, JSON-serializable for
// downstream tooling.
type Result struct {
	Name string `json:"name"`

	M1 float64 `json:"l1_local_miss"`
	M2 float64 `json:"l2_local_miss"`

	AMATBudgetPS float64 `json:"amat_budget_ps"`

	L2Optimization struct {
		Feasible  bool    `json:"feasible"`
		LeakageMW float64 `json:"leakage_mw"`
		AMATPS    float64 `json:"amat_ps"`
		EnergyPJ  float64 `json:"energy_pj"`
		CellKnobs string  `json:"l2_cell_knobs"`
		PeriKnobs string  `json:"l2_periph_knobs"`
	} `json:"l2_optimization"`

	Tuples []TupleOutcome `json:"tuples,omitempty"`
}

// TupleOutcome is one tuple-budget optimization result.
type TupleOutcome struct {
	Budget   string    `json:"budget"`
	Feasible bool      `json:"feasible"`
	EnergyPJ float64   `json:"energy_pj"`
	VthSet   []float64 `json:"vth_set,omitempty"`
	ToxSetA  []float64 `json:"tox_set_a,omitempty"`
}

// RunCtx executes the scenario: simulate the workload, build the models,
// optimize the L2 under the AMAT budget, and run any requested tuple
// optimizations. Cancelling ctx aborts mid-simulation or mid-search with
// ctx's error.
func RunCtx(ctx context.Context, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	l1Size := cfg.L1KB * cachecfg.KB
	l2Size := cfg.L2KB * cachecfg.KB

	m1, m2, err := missRates(ctx, cfg, l1Size, l2Size)
	if err != nil {
		return Result{}, err
	}

	// Designs are memoized process-wide per cache organization: a sweep
	// over N design points pays characterize-and-fit once per distinct
	// (level, size), not once per point — the dominant term of the
	// per-point cost before this hoist (see BenchmarkGridRunItem).
	tech := core.SharedTechnology()
	l1d, err := core.SharedDesign(cachecfg.L1(l1Size))
	if err != nil {
		return Result{}, err
	}
	l2d, err := core.SharedDesign(cachecfg.L2(l2Size))
	if err != nil {
		return Result{}, err
	}
	memSpec := mem.DefaultDDR()
	if cfg.FastMemory {
		memSpec = mem.FastDDR()
	}
	tl := &opt.TwoLevel{L1: l1d.Model, L2: l2d.Model, M1: m1, M2: m2, Mem: memSpec}
	if err := tl.Validate(); err != nil {
		return Result{}, err
	}

	res := Result{Name: cfg.Name, M1: m1, M2: m2}

	a1 := components.Uniform(opt.DefaultOP())
	budget := units.FromPS(cfg.AMATBudgetPS)
	if budget == 0 {
		fast := tl.AMAT(a1, components.Uniform(device.OP(tech.VthMin, 10)))
		slow := tl.AMAT(a1, components.Uniform(device.OP(tech.VthMax, 14)))
		budget = (fast + slow) / 2
	}
	res.AMATBudgetPS = units.ToPS(budget)

	scheme := opt.Scheme(cfg.Scheme)
	r, err := tl.OptimizeL2Ctx(ctx, scheme, a1, core.SharedKnobGrid(), budget)
	if err != nil {
		return Result{}, err
	}
	res.L2Optimization.Feasible = r.Feasible
	if r.Feasible {
		res.L2Optimization.LeakageMW = units.ToMW(r.LeakageW)
		res.L2Optimization.AMATPS = units.ToPS(r.AMATS)
		res.L2Optimization.EnergyPJ = units.ToPJ(r.TotalEnergyJ)
		res.L2Optimization.CellKnobs = r.L2Assignment[components.PartCellArray].String()
		res.L2Optimization.PeriKnobs = r.L2Assignment[components.PartDecoder].String()
	}

	ms := &opt.MemorySystem{TwoLevel: *tl}
	vths, toxs := opt.CoarseMenu()
	for _, b := range cfg.TupleBudgets {
		tb := opt.TupleBudget{NTox: b[0], NVth: b[1]}
		tr, err := ms.OptimizeTuplesCtx(ctx, tb, vths, toxs, budget)
		if err != nil {
			return Result{}, err
		}
		outcome := TupleOutcome{Budget: tb.String(), Feasible: tr.Feasible}
		if tr.Feasible {
			outcome.EnergyPJ = units.ToPJ(tr.EnergyJ)
			outcome.VthSet = tr.VthSet
			outcome.ToxSetA = tr.ToxSet
		}
		res.Tuples = append(res.Tuples, outcome)
	}
	return res, nil
}

// missRates computes the configured workload's (or the suite average's)
// miss rates at the requested fidelity: trace-driven simulation by
// default, or the stack-distance fast path when the config opts into
// analytical fidelity. Under the fast path the per-workload profile is
// memoized process-wide, so a grid of design points pays one profiling
// pass per workload instead of one simulation per point.
func missRates(ctx context.Context, cfg Config, l1Size, l2Size int) (float64, float64, error) {
	var suites []trace.Params
	if cfg.Workload == "average" {
		suites = trace.Suites(cfg.Seed)
	} else {
		for _, p := range trace.Suites(cfg.Seed) {
			if p.Name == cfg.Workload {
				suites = []trace.Params{p}
			}
		}
	}
	if len(suites) == 0 {
		return 0, 0, fmt.Errorf("scenario: workload %q not found", cfg.Workload)
	}
	build := sim.BuildSuiteMatricesCtx
	if cfg.Fidelity == profile.FidelityAnalytical {
		build = profile.BuildSuiteMatricesCtx
	}
	ms, err := build(ctx, suites, []int{l1Size}, []int{l2Size}, cfg.Accesses)
	if err != nil {
		return 0, 0, err
	}
	avg, err := sim.Average(ms)
	if err != nil {
		return 0, 0, err
	}
	return avg.L1Local[l1Size], avg.L2Local[l1Size][l2Size], nil
}
