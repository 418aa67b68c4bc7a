package dist

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/exp"
	"repro/internal/sweep"
)

// TestLeaseCarriesBatchEnv checks an experiments unit is self-contained:
// its payload decodes to the batch's environment scale, so a worker runs
// it at that scale with no configuration of its own, while a unit of
// another kind carries its payload unchanged.
func TestLeaseCarriesBatchEnv(t *testing.T) {
	env := exp.NewQuickEnv()
	env.Fidelity = "analytical"
	eb, err := exp.NewBatch([]string{"fig1", "fig2"}, env)
	if err != nil {
		t.Fatal(err)
	}
	s, srv, _, _ := batchService(t, eb, ServiceConfig{Units: 1})
	if _, _, err := s.Submit(toyBatch{1}); err != nil {
		t.Fatal(err)
	}

	// Batches lease in submission order: the experiments unit first.
	lease := leaseRaw(t, srv, "w0")
	if lease.Unit == nil || lease.Unit.Kind != exp.WorkKind {
		t.Fatalf("first lease = %+v", lease)
	}
	var scale exp.Scale
	if err := json.Unmarshal(lease.Unit.Payload, &scale); err != nil {
		t.Fatalf("unit payload %s: %v", lease.Unit.Payload, err)
	}
	if want := exp.ScaleOf(env); scale != want {
		t.Errorf("unit payload carries scale %+v, want %+v", scale, want)
	}

	lease = leaseRaw(t, srv, "w0")
	want, err := toyBatch{1}.MarshalRange(sweep.Range{Lo: 0, Hi: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lease.Unit == nil || lease.Unit.Kind != "toy" || !bytes.Equal(lease.Unit.Payload, want) {
		t.Errorf("toy lease = %+v, want a toy unit with payload %s", lease, want)
	}
}
