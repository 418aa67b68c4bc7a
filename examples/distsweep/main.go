// Distsweep demonstrates the distributed sweep subsystem end to end, in
// one process: a service splits the example scenario batch into work
// units, two workers lease and execute them over loopback HTTP, and the
// service's ordered reader writes the NDJSON results to stdout in input
// order — byte-identical to what `scenario -stream` emits for the same
// batch. The batch journals to a checkpoint file, so a killed run
// restarted with the same command completes only the remainder.
//
//	go run ./examples/distsweep
//	go run ./examples/distsweep | diff - <(go run ./cmd/scenario -f examples/scenarios.json -stream)
//
// Across real machines the same pieces are the sweepd binary:
//
//	sweepd serve -f examples/scenarios.json -addr :8080 -checkpoint sweep.journal -resume
//	sweepd work -coordinator http://host:8080   # on every machine, as many as you like
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/dist"
	"repro/internal/dist/journal"
	"repro/internal/dist/store"
	"repro/internal/scenario"
	"repro/internal/work"
)

const checkpoint = "distsweep.journal"

func main() {
	log.SetFlags(0)
	ctx, stop := cli.SignalContext()
	defer stop()

	f, err := os.Open("examples/scenarios.json")
	if err != nil {
		log.Fatal(err)
	}
	b, err := scenario.LoadBatch(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	// The header's content hash pins the checkpoint to exactly this input.
	// Lines a previous run journaled are not printed again.
	hdr, err := work.Header(b)
	if err != nil {
		log.Fatal(err)
	}
	resumed, err := journal.Replay(checkpoint, hdr)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		log.Fatal(err)
	}
	if len(resumed) > 0 {
		fmt.Fprintf(os.Stderr, "resuming: %d/%d scenarios already journaled\n", len(resumed), b.Len())
	}

	// A store of one journal is all a single batch needs; admission
	// resumes it, so fully journaled units are never leased. Submit works
	// for any work.Batch — experiments and grids distribute the same way.
	sctx, stopService := context.WithCancel(ctx)
	defer stopService()
	svc, err := dist.NewService(sctx, dist.ServiceConfig{
		Store:    store.OpenFile(checkpoint),
		Units:    4,
		LeaseTTL: 10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	st, _, err := svc.Submit(b)
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Two workers — in production these are `sweepd work` processes on
	// other machines; here they share our process and loopback HTTP.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("worker-%d", i)
		w := &dist.Worker{
			Coordinator: srv.URL,
			ID:          id,
			Exec:        dist.RegistryExecutor(0, nil),
			OnUnit: func(u dist.Unit) {
				fmt.Fprintf(os.Stderr, "%s finished unit %d (scenarios %d-%d)\n", id, u.ID, u.Range.Lo, u.Range.Hi-1)
			},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			}
		}()
	}

	// Results yields the lines in input order as the ordered prefix
	// completes, then the batch's verdict.
	err = svc.Results(ctx, st.ID, func(i int, line []byte) error {
		// Indices arrive in order, as resumed is sorted.
		if len(resumed) > 0 && resumed[0].I == i {
			resumed = resumed[1:]
			return nil
		}
		_, err := fmt.Printf("%s\n", line)
		return err
	}, nil)
	// With the batch over, leases answer done and the workers exit.
	stopService()
	wg.Wait()
	if err != nil {
		if cli.Cancelled(err) {
			log.Fatal("cancelled; the journal keeps what finished — rerun to resume")
		}
		log.Fatal(err)
	}
	fmt.Fprintln(os.Stderr, "sweep complete; remove distsweep.journal to rerun from scratch")
}
