package scenario

import (
	"encoding/json"
	"fmt"
	"io"
)

// Batch is the multi-scenario JSON schema: a top-level "scenarios" array of
// ordinary scenario configs, run concurrently with per-scenario isolation.
//
//	{
//	  "scenarios": [
//	    {"name": "small", "l1_kb": 16, "l2_kb": 256, "workload": "tpcc"},
//	    {"name": "large", "l1_kb": 64, "l2_kb": 4096, "workload": "average"}
//	  ]
//	}
type Batch struct {
	Scenarios []Config `json:"scenarios"`
}

// Validate checks every member config and requires unique, non-empty names
// (results are keyed by name downstream).
func (b Batch) Validate() error {
	if len(b.Scenarios) == 0 {
		return fmt.Errorf("scenario: batch has no scenarios")
	}
	seen := make(map[string]bool, len(b.Scenarios))
	for i, c := range b.Scenarios {
		if err := c.check(); err != nil {
			return fmt.Errorf("scenario: batch entry %d: %w", i, err)
		}
		if seen[c.Name] {
			return fmt.Errorf("scenario: duplicate scenario name %q", c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

// withDefaults fills optional fields of every member.
func (b Batch) withDefaults() Batch {
	out := Batch{Scenarios: make([]Config, len(b.Scenarios))}
	for i, c := range b.Scenarios {
		out.Scenarios[i] = c.withDefaults()
	}
	return out
}

// LoadBatch parses a multi-scenario JSON batch, rejecting unknown fields.
func LoadBatch(r io.Reader) (Batch, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var b Batch
	if err := dec.Decode(&b); err != nil {
		return Batch{}, fmt.Errorf("scenario: %w", err)
	}
	if err := b.Validate(); err != nil {
		return Batch{}, err
	}
	return b.withDefaults(), nil
}

// IsBatch reports whether the JSON document carries a top-level "scenarios"
// key (a batch) rather than a single scenario config.
func IsBatch(data []byte) bool {
	var probe struct {
		Scenarios json.RawMessage `json:"scenarios"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return false
	}
	return probe.Scenarios != nil
}

// NDJSONLine renders one result as a single compact JSON line (no trailing
// newline) — the unit of the batch streaming format. The field content is
// identical to the result's entry in the buffered {"scenarios": [...]}
// document; only the framing (one object per line instead of an array)
// differs.
func (r Result) NDJSONLine() ([]byte, error) {
	return json.Marshal(r)
}
