package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
)

// TestLeaseCarriesBatchEnv checks the environment rides on the lease: a
// unit of an EnvDescriber batch carries the batch's declared environment,
// and a unit of a self-contained kind carries none.
func TestLeaseCarriesBatchEnv(t *testing.T) {
	env := exp.NewQuickEnv()
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
	if err := json.Unmarshal(lease.Env, &scale); err != nil {
		t.Fatalf("lease env %s: %v", lease.Env, err)
	}
	if want := exp.ScaleOf(env); scale != want {
		t.Errorf("lease declares %v, want %v", scale, want)
	}

	if lease := leaseRaw(t, srv, "w0"); lease.Unit == nil || lease.Unit.Kind != "toy" || lease.Env != nil {
		t.Errorf("self-contained kind's lease = %+v (env %s), want a toy unit without env", lease, lease.Env)
	}
}

// toyEnvBatch is a toy batch that declares a process environment.
type toyEnvBatch struct {
	toyBatch
	env json.RawMessage
}

func (b toyEnvBatch) DescribeEnv() (json.RawMessage, error) { return b.env, nil }

// TestWorkerVerifyEnvHardFails pins the fleet-scale agreement: a worker
// whose VerifyEnv rejects the batch's declared environment exits with
// that error before executing anything — and without aborting the batch,
// so a correctly configured peer can still finish the sweep.
func TestWorkerVerifyEnvHardFails(t *testing.T) {
	b := toyEnvBatch{toyBatch{4}, json.RawMessage(`{"accesses":1000000,"seed":1,"min_r2":0.97}`)}
	s, srv, id, stop := batchService(t, b, ServiceConfig{Units: 2, LeaseTTL: 200 * time.Millisecond})

	executed := false
	bad := &Worker{
		Coordinator: srv.URL,
		ID:          "misconfigured",
		Client:      srv.Client(),
		Poll:        5 * time.Millisecond,
		VerifyEnv: func(kind string, env json.RawMessage) error {
			if kind != "toy" {
				t.Errorf("VerifyEnv saw kind %q", kind)
			}
			if !strings.Contains(string(env), "1000000") {
				t.Errorf("VerifyEnv saw env %s", env)
			}
			return fmt.Errorf("scale mismatch: fleet wants full, this worker runs -quick")
		},
		Exec: func(ctx context.Context, u Unit) ([][]byte, error) {
			executed = true
			return toyExec(-1)(ctx, u)
		},
	}
	err := bad.Run(t.Context())
	if err == nil || !strings.Contains(err.Error(), "scale mismatch") {
		t.Fatalf("misconfigured worker returned %v, want the mismatch error", err)
	}
	if executed {
		t.Error("misconfigured worker executed a unit before failing")
	}

	// The batch is not poisoned: a good worker drains it completely once
	// the misconfigured worker's abandoned lease expires.
	good := &Worker{
		Coordinator: srv.URL,
		ID:          "aligned",
		Client:      srv.Client(),
		Poll:        5 * time.Millisecond,
		VerifyEnv:   func(string, json.RawMessage) error { return nil },
		Exec:        toyExec(-1),
	}
	werr := make(chan error, 1)
	go func() { werr <- good.Run(t.Context()) }()
	got, verdict := results(t.Context(), s, id)
	stop()
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	if verdict != nil || got != toyWant(4) {
		t.Errorf("reassembled output = %q (verdict %v), want %q", got, verdict, toyWant(4))
	}
}
