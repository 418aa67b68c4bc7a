package grid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/work"
)

// DefaultNameTemplate names points when the spec does not: it mentions
// the four axes the paper's study varies. Grids that vary
// amat_budget_ps, fast_memory, or fidelity must extend the template, or
// expansion fails on duplicate names.
const DefaultNameTemplate = "g-l1{l1_kb}-l2{l2_kb}-{workload}-s{scheme}"

// DefaultMaxPoints is the expansion cap when the spec does not raise it:
// large enough for the paper's full L1×L2×workload×scheme product, small
// enough that a typo'd axis fails loudly instead of silently queueing a
// million points.
const DefaultMaxPoints = 4096

// HardMaxPoints bounds max_points itself. Expansion is lazy — point i's
// config is computed on demand, so memory is O(in-flight points), not
// O(grid) — which moves the wall from materialization to per-point
// execution time and journal size (one NDJSON entry per point). At the
// measured marginal analytical point cost (sub-millisecond; see
// BenchmarkGridRunItem and BENCH_7.json) a full 1<<24 grid is hours of
// single-process compute, a scale fleets and the analytical fast path
// make routine; anything above it is more plausibly a typo'd axis than a
// plan.
const HardMaxPoints = 1 << 24

// dupScanMaxPoints bounds the expansion-time duplicate-name backstop
// scan. Validate's analytical checks (every varying axis in the
// template, every axis value rendering distinctly) catch the mistakes a
// user can plausibly make; the only collisions they admit are
// concatenation ambiguities between adjacent placeholders ("{l1_kb}{l2_kb}"
// rendering 1,11 and 11,1 both as "111"). Expand scans the full
// expansion for those only while the grid is small enough that the scan
// is free — beyond this bound (the pre-lazy HardMaxPoints) names are
// trusted to the analytical checks, keeping Expand O(axes).
const dupScanMaxPoints = 1 << 18

// Spec is the JSON document: one top-level "grid" object.
type Spec struct {
	Grid Grid `json:"grid"`
}

// Grid declares the sweep: axes, the base config shared by every point,
// the name template, and the point-count cap.
type Grid struct {
	// Name is the point-name template; placeholders like {l1_kb} render
	// the point's field values (default DefaultNameTemplate).
	Name string `json:"name,omitempty"`
	// Axes are the varied fields.
	Axes Axes `json:"axes"`
	// Base carries every field the axes do not vary (workload defaults,
	// accesses, seed, tuple budgets, ...). Its name must be empty — point
	// names come from the template — and it must not set a field an axis
	// already declares.
	Base scenario.Config `json:"base,omitempty"`
	// MaxPoints caps the expansion (0 = DefaultMaxPoints; values above
	// HardMaxPoints are refused).
	MaxPoints int `json:"max_points,omitempty"`
}

// Axes are the design-space dimensions, each a list of values for one
// scenario.Config field. A nil axis is simply not varied (the base value
// applies); a present-but-empty axis is an error.
type Axes struct {
	L1KB         []int     `json:"l1_kb,omitempty"`
	L2KB         []int     `json:"l2_kb,omitempty"`
	Workload     []string  `json:"workload,omitempty"`
	Scheme       []int     `json:"scheme,omitempty"`
	AMATBudgetPS []float64 `json:"amat_budget_ps,omitempty"`
	FastMemory   []bool    `json:"fast_memory,omitempty"`
	Fidelity     []string  `json:"fidelity,omitempty"`
}

// Load parses a grid spec, rejecting unknown fields so typos fail loud.
func Load(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("grid: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// IsSpec reports whether the JSON document carries a top-level "grid" key —
// how LoadWork tells a grid document from a scenario or batch.
func IsSpec(data []byte) bool {
	var probe struct {
		Grid json.RawMessage `json:"grid"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return false
	}
	return probe.Grid != nil
}

// LoadWork is the one rule for what a workload document means, whichever
// way it comes in — cmd/scenario and every cmd/sweepd subcommand read
// documents through it, and the wire decoders resolve a payload the same
// way. A top-level "grid" object is a grid, expanded; a "scenarios" array
// is a scenario batch; anything else is one scenario config, returned as
// a batch of one with single set. fidelity is the -fidelity default: it
// fills every config that names none (for a grid, the base unless the
// base names one), and a grid with a fidelity axis refuses it.
func LoadWork(data []byte, fidelity string) (b work.Batch, single bool, err error) {
	if !profile.ValidFidelity(fidelity) {
		return nil, false, fmt.Errorf("grid: unknown fidelity %q (want %q or %q)",
			fidelity, profile.FidelityTrace, profile.FidelityAnalytical)
	}
	if IsSpec(data) {
		s, err := Load(bytes.NewReader(data))
		if err == nil && fidelity != "" && s.Grid.Axes.Fidelity != nil {
			err = fmt.Errorf("grid: the grid declares a fidelity axis; drop -fidelity")
		}
		if err != nil {
			return nil, false, err
		}
		if s.Grid.Base.Fidelity == "" {
			s.Grid.Base.Fidelity = fidelity
		}
		gb, err := s.Expand()
		if err != nil {
			return nil, false, err
		}
		return gb, false, nil
	}
	var sb scenario.Batch
	if scenario.IsBatch(data) {
		sb, err = scenario.LoadBatch(bytes.NewReader(data))
	} else {
		var cfg scenario.Config
		cfg, err = scenario.Load(bytes.NewReader(data))
		sb, single = scenario.Batch{Scenarios: []scenario.Config{cfg}}, true
	}
	if err != nil {
		return nil, false, err
	}
	for i := range sb.Scenarios {
		if sb.Scenarios[i].Fidelity == "" {
			sb.Scenarios[i].Fidelity = fidelity
		}
	}
	return sb, single, nil
}

// withDefaults fills the template and cap.
func (g Grid) withDefaults() Grid {
	if g.Name == "" {
		g.Name = DefaultNameTemplate
	}
	if g.MaxPoints == 0 {
		g.MaxPoints = DefaultMaxPoints
	}
	return g
}

// axis is one resolved dimension of the expansion.
type axis struct {
	field string
	n     int
	set   func(c *scenario.Config, k int)
}

// axes resolves the declared dimensions in canonical row-major order. A
// declared-but-empty axis is an error: it would silently expand to zero
// points.
func (g Grid) axes() ([]axis, error) {
	all := []struct {
		field string
		n     int
		nilp  bool
		set   func(c *scenario.Config, k int)
	}{
		{"l1_kb", len(g.Axes.L1KB), g.Axes.L1KB == nil,
			func(c *scenario.Config, k int) { c.L1KB = g.Axes.L1KB[k] }},
		{"l2_kb", len(g.Axes.L2KB), g.Axes.L2KB == nil,
			func(c *scenario.Config, k int) { c.L2KB = g.Axes.L2KB[k] }},
		{"workload", len(g.Axes.Workload), g.Axes.Workload == nil,
			func(c *scenario.Config, k int) { c.Workload = g.Axes.Workload[k] }},
		{"scheme", len(g.Axes.Scheme), g.Axes.Scheme == nil,
			func(c *scenario.Config, k int) { c.Scheme = g.Axes.Scheme[k] }},
		{"amat_budget_ps", len(g.Axes.AMATBudgetPS), g.Axes.AMATBudgetPS == nil,
			func(c *scenario.Config, k int) { c.AMATBudgetPS = g.Axes.AMATBudgetPS[k] }},
		{"fast_memory", len(g.Axes.FastMemory), g.Axes.FastMemory == nil,
			func(c *scenario.Config, k int) { c.FastMemory = g.Axes.FastMemory[k] }},
		{"fidelity", len(g.Axes.Fidelity), g.Axes.Fidelity == nil,
			func(c *scenario.Config, k int) { c.Fidelity = g.Axes.Fidelity[k] }},
	}
	var out []axis
	for _, a := range all {
		if a.nilp {
			continue
		}
		if a.n == 0 {
			return nil, fmt.Errorf("grid: axis %s is empty (omit the axis to not vary it)", a.field)
		}
		out = append(out, axis{field: a.field, n: a.n, set: a.set})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("grid: no axes declared")
	}
	return out, nil
}

// baseCollisions reports axed fields the base also sets — an ambiguity
// (which value wins?) this package refuses instead of resolving silently.
// fast_memory is exempt: its zero value is indistinguishable from unset,
// and false is the default anyway.
func (g Grid) baseCollisions() error {
	set := map[string]bool{
		"l1_kb":          g.Base.L1KB != 0,
		"l2_kb":          g.Base.L2KB != 0,
		"workload":       g.Base.Workload != "",
		"scheme":         g.Base.Scheme != 0,
		"amat_budget_ps": g.Base.AMATBudgetPS != 0,
		"fidelity":       g.Base.Fidelity != "",
	}
	axes, err := g.axes()
	if err != nil {
		return err
	}
	for _, a := range axes {
		if set[a.field] {
			return fmt.Errorf("grid: base sets %s, which is also an axis (drop one)", a.field)
		}
	}
	return nil
}

// Validate reports structural spec errors: missing or empty axes, a named
// or colliding base, an unknown template placeholder, an out-of-bounds
// cap, or a name template that cannot keep point names unique. The
// uniqueness check is analytical — O(axes), no expansion: the template
// must mention every axis that actually varies, and every axis's values
// must render to distinct strings. Per-point config errors surface from
// Expand (also analytically, per axis value rather than per point).
func (s Spec) Validate() error {
	g := s.Grid.withDefaults()
	axes, err := g.axes()
	if err != nil {
		return err
	}
	if g.Base.Name != "" {
		return fmt.Errorf("grid: base must not set a name (point names come from the template)")
	}
	if err := g.baseCollisions(); err != nil {
		return err
	}
	if err := validateTemplate(g.Name); err != nil {
		return err
	}
	if err := validateNameCoverage(g, axes); err != nil {
		return err
	}
	if g.MaxPoints < 0 || g.MaxPoints > HardMaxPoints {
		return fmt.Errorf("grid: max_points %d out of range (0, %d]", g.MaxPoints, HardMaxPoints)
	}
	return nil
}

// validateNameCoverage proves point names unique without expanding the
// grid: every varying axis (two or more values) must appear as a
// template placeholder, and each such axis's values must render to
// pairwise-distinct strings. Two points differing in some axis then
// differ in that axis's rendered substring, so only concatenation
// ambiguity between adjacent placeholders can still collide — which the
// bounded backstop scan in Expand covers.
func validateNameCoverage(g Grid, axes []axis) error {
	mentioned := templatePlaceholders(g.Name)
	for _, a := range axes {
		if a.n < 2 {
			continue
		}
		if !mentioned[a.field] {
			return fmt.Errorf("grid: name template %q omits varying axis %s, so its %d values expand to duplicate point names (add {%s})",
				g.Name, a.field, a.n, a.field)
		}
		// Render each value through the same defaulted-config path point
		// names use, so default folding (fidelity "" renders "trace",
		// scheme 0 defaults to 2) is caught, not just literal repeats.
		seen := make(map[string]int, a.n)
		for j := 0; j < a.n; j++ {
			cfg := atOrigin(g, axes)
			a.set(&cfg, j)
			r := templateFields[a.field](cfg.WithDefaults())
			if prev, dup := seen[r]; dup {
				return fmt.Errorf("grid: axis %s values at positions %d and %d both render as %q in point names",
					a.field, prev, j, r)
			}
			seen[r] = j
		}
	}
	return nil
}

// atOrigin returns the unnamed, undefaulted config at the grid origin —
// every axis at its first value.
func atOrigin(g Grid, axes []axis) scenario.Config {
	cfg := g.Base
	for _, a := range axes {
		a.set(&cfg, 0)
	}
	return cfg
}

// templateFields are the placeholders the name template may use.
var templateFields = map[string]func(c scenario.Config) string{
	"l1_kb":    func(c scenario.Config) string { return strconv.Itoa(c.L1KB) },
	"l2_kb":    func(c scenario.Config) string { return strconv.Itoa(c.L2KB) },
	"workload": func(c scenario.Config) string { return c.Workload },
	"scheme":   func(c scenario.Config) string { return strconv.Itoa(c.Scheme) },
	"amat_budget_ps": func(c scenario.Config) string {
		// Fixed-point with trailing-zero trim ('f' with -1 precision): the
		// 'g' verb previously switched to scientific notation for large
		// budgets, putting "1.2e+06" — with a '+' — into point names and
		// rendering distinct values ambiguously.
		return strconv.FormatFloat(c.AMATBudgetPS, 'f', -1, 64)
	},
	"fast_memory": func(c scenario.Config) string {
		if c.FastMemory {
			return "fast"
		}
		return "slow"
	},
	"fidelity": func(c scenario.Config) string {
		if c.Fidelity == "" {
			return profile.FidelityTrace
		}
		return c.Fidelity
	},
}

// validateTemplate rejects unknown placeholders and unbalanced braces
// before any expansion work happens.
func validateTemplate(tmpl string) error {
	rest := tmpl
	for {
		open := strings.IndexByte(rest, '{')
		if open < 0 {
			if strings.IndexByte(rest, '}') >= 0 {
				return fmt.Errorf("grid: name template %q has an unmatched '}'", tmpl)
			}
			return nil
		}
		if strings.IndexByte(rest[:open], '}') >= 0 {
			return fmt.Errorf("grid: name template %q has an unmatched '}'", tmpl)
		}
		close := strings.IndexByte(rest[open:], '}')
		if close < 0 {
			return fmt.Errorf("grid: name template %q has an unmatched '{'", tmpl)
		}
		field := rest[open+1 : open+close]
		if _, ok := templateFields[field]; !ok {
			return fmt.Errorf("grid: name template placeholder {%s} is not an axis field", field)
		}
		rest = rest[open+close+1:]
	}
}

// templatePlaceholders returns the placeholder fields of a validated
// template.
func templatePlaceholders(tmpl string) map[string]bool {
	out := make(map[string]bool)
	rest := tmpl
	for {
		open := strings.IndexByte(rest, '{')
		if open < 0 {
			return out
		}
		close := strings.IndexByte(rest[open:], '}')
		out[rest[open+1:open+close]] = true
		rest = rest[open+close+1:]
	}
}

// renderName fills the template from one point's (defaulted) config.
// Templates were validated at Load, so every placeholder resolves.
func renderName(tmpl string, c scenario.Config) string {
	var b strings.Builder
	rest := tmpl
	for {
		open := strings.IndexByte(rest, '{')
		if open < 0 {
			b.WriteString(rest)
			return b.String()
		}
		b.WriteString(rest[:open])
		close := strings.IndexByte(rest[open:], '}')
		b.WriteString(templateFields[rest[open+1:open+close]](c))
		rest = rest[open+close+1:]
	}
}

// pointCount resolves the (defaulted) grid's axes and total point count,
// enforcing the cap before anything is materialized.
func pointCount(g Grid) (int, []axis, error) {
	axes, err := g.axes()
	if err != nil {
		return 0, nil, err
	}
	total := 1
	for _, a := range axes {
		total *= a.n
		if total > g.MaxPoints {
			return 0, nil, fmt.Errorf("grid: expands to more than %d points (raise max_points, hard cap %d)",
				g.MaxPoints, HardMaxPoints)
		}
	}
	return total, axes, nil
}

// configAt computes point i of the (defaulted) grid's row-major
// expansion: a named, defaulted scenario config, a pure function of
// (g, i) in O(axes) time and memory. It does not validate — expand
// proves every point valid once, per axis value rather than per point
// (validateAxisValues).
func configAt(g Grid, axes []axis, i int) scenario.Config {
	cfg := g.Base
	// Row-major: the last axis varies fastest.
	rem := i
	for k := len(axes) - 1; k >= 0; k-- {
		axes[k].set(&cfg, rem%axes[k].n)
		rem /= axes[k].n
	}
	cfg = cfg.WithDefaults()
	cfg.Name = renderName(g.Name, cfg)
	return cfg
}

// validateAxisValues proves every point of the grid valid in O(sum of
// axis lengths) instead of O(product): scenario.Config.Validate checks
// each field independently, so validating the origin point plus every
// axis value as a single-field override of the origin covers the whole
// cross product.
func validateAxisValues(g Grid, axes []axis) error {
	origin := configAt(g, axes, 0)
	if err := origin.Validate(); err != nil {
		return fmt.Errorf("grid: point 0 (%s): %w", origin.Name, err)
	}
	for _, a := range axes {
		for j := 1; j < a.n; j++ {
			cfg := origin
			a.set(&cfg, j)
			cfg = cfg.WithDefaults()
			if err := cfg.Validate(); err != nil {
				return fmt.Errorf("grid: axis %s value %d of %d: %w", a.field, j+1, a.n, err)
			}
		}
	}
	return nil
}
