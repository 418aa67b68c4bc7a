package grid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/dist/journal"
)

// Frontier reduces a grid run's NDJSON result lines to the
// leakage-vs-AMAT Pareto front across design points: the set of feasible
// points no other point beats on both optimized-L2 leakage and achieved
// AMAT. It follows opt.ParetoFront's semantics — sorted by increasing
// AMAT, strictly decreasing leakage, dominated-or-equal points dropped —
// with strict input-order tie-breaking: of two points with identical
// (AMAT, leakage), the earlier design point survives, so the front is a
// pure function of the grid, not of execution order.
//
// Feed it lines keyed by input index (Add tolerates any call order — a
// resumed run adds journal-replayed lines and freshly streamed lines as
// they arrive) and render the final {"frontier": [...]} summary with
// SummaryLine.
type Frontier struct {
	cand []frontierCand
}

// frontierCand is one feasible design point awaiting reduction.
type frontierCand struct {
	idx       int
	name      string
	amatPS    float64
	leakageMW float64
}

// FrontierPoint is one surviving design point of the front.
type FrontierPoint struct {
	Name      string  `json:"name"`
	AMATPS    float64 `json:"amat_ps"`
	LeakageMW float64 `json:"leakage_mw"`
}

// frontierSummary is the final summary object.
type frontierSummary struct {
	Frontier []FrontierPoint `json:"frontier"`
}

// Add records the result line of design point i. Infeasible points (no
// knob assignment met the AMAT budget) are skipped — they have no
// leakage/AMAT coordinates to trade off. Lines must be the scenario
// result frames a grid run emits. A line in the frame json.Marshal writes
// for a result with no tuples is read in one pass (scanLine); any other
// line goes through encoding/json, whose errors Add returns.
func (f *Frontier) Add(i int, line []byte) error {
	if c, feasible, ok := scanLine(line); ok {
		if feasible {
			c.idx = i
			f.cand = append(f.cand, c)
		}
		return nil
	}
	var res struct {
		Name string `json:"name"`
		L2   struct {
			Feasible  bool    `json:"feasible"`
			LeakageMW float64 `json:"leakage_mw"`
			AMATPS    float64 `json:"amat_ps"`
		} `json:"l2_optimization"`
	}
	if err := json.Unmarshal(line, &res); err != nil {
		return fmt.Errorf("grid: frontier line %d: %w", i, err)
	}
	if !res.L2.Feasible {
		return nil
	}
	f.cand = append(f.cand, frontierCand{
		idx:       i,
		name:      res.Name,
		amatPS:    res.L2.AMATPS,
		leakageMW: res.L2.LeakageMW,
	})
	return nil
}

// scanLine reads a line in the frame json.Marshal writes for a
// scenario.Result with no tuples: compact, its keys in declaration order,
// every string printable ASCII with no '"' or '\\'. For such a line it
// reports ok with what json.Unmarshal decodes into Add's fields: the
// point's feasibility and coordinates, and its name when it is feasible.
// The numbers Add skips are checked against JSON's grammar, and the two
// it reads are parsed with strconv.ParseFloat, as encoding/json parses
// them. Any other line, or a coordinate ParseFloat refuses, reports false.
func scanLine(line []byte) (c frontierCand, feasible, ok bool) {
	s := lineScan{rest: line, ok: true}
	s.lit(`{"name":"`)
	name := s.str()
	s.lit(`,"l1_local_miss":`)
	s.num()
	s.lit(`,"l2_local_miss":`)
	s.num()
	s.lit(`,"amat_budget_ps":`)
	s.num()
	s.lit(`,"l2_optimization":{"feasible":`)
	feasible = s.boolean()
	s.lit(`,"leakage_mw":`)
	leak := s.num()
	s.lit(`,"amat_ps":`)
	amat := s.num()
	s.lit(`,"energy_pj":`)
	s.num()
	s.lit(`,"l2_cell_knobs":"`)
	s.str()
	s.lit(`,"l2_periph_knobs":"`)
	s.str()
	s.lit(`}}`)
	if !s.ok || len(s.rest) > 0 {
		return frontierCand{}, false, false
	}
	var errLeak, errAMAT error
	c.leakageMW, errLeak = strconv.ParseFloat(string(leak), 64)
	c.amatPS, errAMAT = strconv.ParseFloat(string(amat), 64)
	if errLeak != nil || errAMAT != nil {
		return frontierCand{}, false, false
	}
	if feasible {
		c.name = string(name)
	}
	return c, feasible, true
}

// lineScan is a cursor over one line for scanLine. The first step that
// does not match clears ok, and every step after it does nothing.
type lineScan struct {
	rest []byte
	ok   bool
}

// lit consumes l.
func (s *lineScan) lit(l string) {
	if s.ok = s.ok && len(s.rest) >= len(l) && string(s.rest[:len(l)]) == l; s.ok {
		s.rest = s.rest[len(l):]
	}
}

// str consumes a string's contents and its closing quote, and returns
// the contents: printable ASCII other than '"' and '\\', which decode to
// themselves.
func (s *lineScan) str() []byte {
	for i := 0; s.ok && i < len(s.rest); i++ {
		switch c := s.rest[i]; {
		case c == '"':
			v := s.rest[:i]
			s.rest = s.rest[i+1:]
			return v
		case c < 0x20 || c > 0x7e || c == '\\':
			s.ok = false
		}
	}
	s.ok = false
	return nil
}

// boolean consumes true or false.
func (s *lineScan) boolean() bool {
	if s.ok && bytes.HasPrefix(s.rest, []byte("true")) {
		s.rest = s.rest[len("true"):]
		return true
	}
	s.lit("false")
	return false
}

// num consumes a JSON number (journal.ScanNumber) and returns its text.
func (s *lineScan) num() []byte {
	if !s.ok {
		return nil
	}
	end := journal.ScanNumber(s.rest, 0)
	if s.ok = end > 0; !s.ok {
		return nil
	}
	v := s.rest[:end]
	s.rest = s.rest[end:]
	return v
}

// Points computes the front: candidates sorted by (AMAT, leakage, input
// index), then reduced with a strictly-decreasing leakage scan. The
// result is never nil, so an all-infeasible grid summarizes as
// {"frontier": []}.
func (f *Frontier) Points() []FrontierPoint {
	sorted := append([]frontierCand(nil), f.cand...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].amatPS != sorted[j].amatPS {
			return sorted[i].amatPS < sorted[j].amatPS
		}
		if sorted[i].leakageMW != sorted[j].leakageMW {
			return sorted[i].leakageMW < sorted[j].leakageMW
		}
		return sorted[i].idx < sorted[j].idx
	})
	out := []FrontierPoint{}
	for _, c := range sorted {
		if len(out) > 0 && c.leakageMW >= out[len(out)-1].LeakageMW {
			continue
		}
		out = append(out, FrontierPoint{Name: c.name, AMATPS: c.amatPS, LeakageMW: c.leakageMW})
	}
	return out
}

// SummaryLine renders the final compact {"frontier": [...]} summary
// object (no trailing newline) — the line a grid run appends after its
// per-point results.
func (f *Frontier) SummaryLine() ([]byte, error) {
	return json.Marshal(frontierSummary{Frontier: f.Points()})
}
