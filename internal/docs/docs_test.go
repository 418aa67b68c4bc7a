package docs

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/dist/store"
)

var update = flag.Bool("update", false, "rewrite docs/wire-protocol.md from the live fixtures")

// TestWireProtocolDoc regenerates the wire-protocol document from live
// fixtures and compares it against the committed file. `go test
// ./internal/docs -update` (the `make docs` target) rewrites it; CI
// runs the comparison, so the committed doc can never drift from the
// protocol the handlers actually speak.
func TestWireProtocolDoc(t *testing.T) {
	got, err := WireProtocol(t.Context(), t.TempDir())
	if err != nil {
		t.Fatalf("WireProtocol: %v", err)
	}
	path := filepath.Join("..", "..", "docs", "wire-protocol.md")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (run `make docs` to generate it): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is stale: the captured protocol no longer matches the committed doc.\nRun `make docs` and commit the result.\n%s",
			path, firstDiff(want, got))
	}
}

// TestWireProtocolDeterministic pins the generator itself: two runs in
// fresh stores must produce identical bytes, or `make docs` would churn
// the committed file on every invocation.
func TestWireProtocolDeterministic(t *testing.T) {
	a, err := WireProtocol(t.Context(), t.TempDir())
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := WireProtocol(t.Context(), t.TempDir())
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("generator is nondeterministic:\n%s", firstDiff(a, b))
	}
}

// serviceRoutes is every route dist.Service.Handler serves.
var serviceRoutes = []string{
	"POST /v1/lease",
	"POST /v1/heartbeat",
	"POST /v1/result",
	"POST /v1/fail",
	"GET /v1/status",
	"GET /metrics",
	"POST /v1/batches",
	"GET /v1/batches",
	"GET /v1/batches/{id}",
	"DELETE /v1/batches/{id}",
	"GET /v1/batches/{id}/results",
}

// TestWireProtocolCoversEveryRoute pins that the committed document shows
// an exchange for every route the service handler serves: each request
// line in the document is routed through the live handler's mux, and the
// patterns it lands on must cover serviceRoutes — which in turn must all
// be patterns the mux really serves.
func TestWireProtocolCoversEveryRoute(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := dist.NewService(t.Context(), dist.ServiceConfig{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	mux, ok := svc.Handler().(*http.ServeMux)
	if !ok {
		t.Fatalf("service handler is a %T, want *http.ServeMux", svc.Handler())
	}
	for _, route := range serviceRoutes {
		method, path, _ := strings.Cut(route, " ")
		if _, pattern := mux.Handler(httptest.NewRequest(method, strings.ReplaceAll(path, "{id}", "x"), nil)); pattern != route {
			t.Errorf("route %q is not served (mux matched %q)", route, pattern)
		}
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "wire-protocol.md"))
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[string]bool)
	for _, m := range regexp.MustCompile("(?m)^```\n(GET|POST|DELETE) (\\S+)\n```$").FindAllStringSubmatch(string(doc), -1) {
		_, pattern := mux.Handler(httptest.NewRequest(m[1], m[2], nil))
		covered[pattern] = true
	}
	for _, route := range serviceRoutes {
		if !covered[route] {
			t.Errorf("docs/wire-protocol.md has no exchange for %s", route)
		}
	}
}

// firstDiff renders the first differing line of two documents for a
// readable failure message.
func firstDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("first difference at line %d:\n  committed: %s\n  generated: %s", i+1, w, g)
		}
	}
	return "documents differ only in length"
}
