package analysis

import (
	"go/ast"
	"strings"
)

// NoFanout enforces the sweep-engine monopoly on parallelism: outside
// internal/sweep (the engine), internal/dist (the fleet protocol), and
// internal/obs (the debug listener), no package starts raw goroutines,
// holds a sync.WaitGroup, or imports an errgroup. Every other fan-out in
// the repository goes through sweep.MapCtx/Stream or the unified work
// driver, because those are the layers that guarantee input-ordered,
// byte-identical-to-sequential output; a stray `go` statement is a
// determinism bug waiting for a scheduler to expose it. The examples
// tree is exempt — examples document the public machinery, including
// the dist worker loops that legitimately spawn.
var NoFanout = &Analyzer{
	Name: "nofanout",
	Doc: "raw go statements, sync.WaitGroup, and errgroup are reserved to " +
		"internal/sweep, internal/dist, and internal/obs; all other fan-out " +
		"must go through the sweep engine or the work driver",
	Exempt: []string{"internal/sweep", "internal/dist", "internal/obs", "examples"},
	Run:    runNoFanout,
}

func runNoFanout(pass *Pass) {
	for _, f := range pass.Files {
		for _, spec := range f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			if path == "golang.org/x/sync/errgroup" || strings.HasSuffix(path, "/errgroup") {
				pass.Reportf(spec.Pos(), "errgroup fan-out outside the sweep engine; use sweep.MapCtx or work.Run")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "raw go statement outside the sweep engine; route fan-out through internal/sweep or the work driver")
			case *ast.SelectorExpr:
				if name, ok := isPkgSel(pass.Info, n, "sync"); ok && name == "WaitGroup" {
					pass.Reportf(n.Pos(), "sync.WaitGroup outside the sweep engine; route fan-out through internal/sweep or the work driver")
				}
			}
			return true
		})
	}
}
