package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/sweep"
	"repro/internal/work"
)

// lastManifest parses stderr's last line as a manifest, failing when
// another line is one too.
func lastManifest(t *testing.T, stderr string) Manifest {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(stderr, "\n"), "\n")
	for _, line := range lines[:len(lines)-1] {
		if strings.HasPrefix(line, `{"manifest":`) {
			t.Fatalf("a manifest before the last line:\n%s", stderr)
		}
	}
	var wrap struct {
		Manifest Manifest `json:"manifest"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &wrap); err != nil {
		t.Fatalf("last stderr line is no manifest (%v):\n%s", err, stderr)
	}
	return wrap.Manifest
}

// TestRunExecFailure pins the end of a failed run: the error and the
// cancel note with the partial count, the metrics listener closed, and
// the manifest, with its outcome, as the last stderr line.
func TestRunExecFailure(t *testing.T) {
	var stderr bytes.Buffer
	r := &Run{Name: "tool", Unit: "items", Manifest: Manifest{Tool: "tool sub"}}
	code := r.Exec(&stderr, func() error {
		if _, err := r.ServeMetrics("127.0.0.1:0", nil); err != nil {
			return err
		}
		r.Progress.Hook()(1, 4)
		return fmt.Errorf("stopping: %w", context.Canceled)
	})
	if code != ExitCancelled {
		t.Errorf("exit %d, want %d", code, ExitCancelled)
	}
	m := regexp.MustCompile(`^tool: metrics on (http://\S+)\ntool: stopping: context canceled\ntool: cancelled after 1/4 items\n`).
		FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("stderr:\n%s", stderr.String())
	}
	if man := lastManifest(t, stderr.String()); man.Tool != "tool sub" || man.Outcome != "cancelled" || man.Error != "stopping: context canceled" {
		t.Errorf("manifest %+v", man)
	}
	if resp, err := http.Get(m[1]); err == nil {
		resp.Body.Close()
		t.Errorf("the metrics listener outlived the run")
	}
}

// lineBatch is a work.Batch of n fixed lines.
type lineBatch struct{ n int }

func (b lineBatch) Kind() string          { return "lines" }
func (b lineBatch) Len() int              { return b.n }
func (b lineBatch) Hash() (string, error) { return fmt.Sprintf("lines%d", b.n), nil }
func (b lineBatch) RunItem(_ context.Context, i int) (json.RawMessage, error) {
	return json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)), nil
}
func (b lineBatch) MarshalRange(r sweep.Range) (json.RawMessage, error) { return json.Marshal(r) }

// TestRunCheckpoint runs the checkpoint step twice over one journal: the
// first run records two of three items, and the resumed run announces
// them and splits the manifest's count between resumed and run.
func TestRunCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	b := lineBatch{n: 3}
	run := func(resume bool, body func(o *work.Options) error) (Manifest, string) {
		var stderr bytes.Buffer
		r := &Run{Name: "tool", Unit: "items", Manifest: Manifest{Tool: "tool"}}
		if code := r.Exec(&stderr, func() error {
			r.Begin(b)
			var o work.Options
			if err := r.Checkpoint(path, b, resume, &o); err != nil {
				return err
			}
			return body(&o)
		}); code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
		}
		return lastManifest(t, stderr.String()), stderr.String()
	}
	man, _ := run(false, func(o *work.Options) error {
		for i := 0; i < 2; i++ {
			if err := o.Journal.Record(i, []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
				return err
			}
		}
		return nil
	})
	if man.Kind != "lines" || man.BatchSHA256 != "lines3" || man.Items != 3 || man.ItemsRun != 3 || man.ItemsResumed != 0 {
		t.Errorf("fresh run's manifest %+v", man)
	}
	man, stderr := run(true, func(o *work.Options) error {
		if len(o.Done) != 2 || o.Journal == nil {
			return fmt.Errorf("resumed options: %d done, journal %v", len(o.Done), o.Journal)
		}
		return nil
	})
	if !strings.HasPrefix(stderr, "tool: resuming, 2/3 items already journaled\n") {
		t.Errorf("resume note missing:\n%s", stderr)
	}
	if man.Items != 3 || man.ItemsRun != 1 || man.ItemsResumed != 2 || man.Outcome != "ok" {
		t.Errorf("resumed run's manifest %+v", man)
	}
}
