package analysis

import (
	"go/ast"
)

// CtxFlow enforces the context-first pipeline PR 2 built: cancellation
// must be able to reach every loop and every I/O from the top of the
// stack, which means library code never conjures its own root context
// and looping entry points accept one.
//
// Rule 1 (everywhere outside cmd, examples, and internal/cli, which owns
// the process root via signal.NotifyContext): no context.Background() or
// context.TODO(). A function without a caller context takes one as a
// parameter; delegating to a context-aware twin does not excuse a
// conjured root.
//
// Rule 2 (the execution-stack packages): an exported function that loops
// and calls context-aware code must itself take a context.Context —
// otherwise it is swallowing cancellation for everything beneath it.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "no context.Background()/TODO() outside cmd, examples, and internal/cli; " +
		"exported looping functions in the execution stack take ctx",
	Exempt: []string{"cmd", "examples", "internal/cli"},
	Run:    runCtxFlow,
}

// ctxStackPkgs are the execution-stack packages rule 2 applies to:
// everything between a CLI flag and a simulated access.
var ctxStackPkgs = []string{
	"internal/sweep", "internal/work", "internal/dist", "internal/grid",
	"internal/scenario", "internal/exp", "internal/sim", "internal/profile",
}

func runCtxFlow(pass *Pass) {
	inStack := false
	for _, pat := range ctxStackPkgs {
		if pathMatches(pass.Path, pat) {
			inStack = true
			break
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			reportRootContexts(pass, decl)
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil && inStack && fd.Name.IsExported() && !hasContextParam(pass.Info, fd) {
				checkLoopingExport(pass, fd)
			}
		}
	}
}

// reportRootContexts flags context.Background() and context.TODO() calls
// under n.
func reportRootContexts(pass *Pass, n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if name, ok := isPkgSel(pass.Info, sel, "context"); ok && (name == "Background" || name == "TODO") {
			pass.Reportf(call.Pos(), "context.%s() in library code; thread the caller's ctx", name)
		}
		return true
	})
}

// checkLoopingExport flags an exported no-context function whose own
// statements (closures excluded: packaged-up work runs under whoever
// executes it) both loop and call into context-aware code.
func checkLoopingExport(pass *Pass, fd *ast.FuncDecl) {
	hasLoop, hasCtxCall := false, false
	inspectOutsideFuncLits(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			hasLoop = true
		case *ast.CallExpr:
			if takesContext(pass.Info, n) {
				hasCtxCall = true
			}
		}
		return true
	})
	if hasLoop && hasCtxCall {
		pass.Reportf(fd.Name.Pos(), "exported %s loops over context-aware work but takes no context.Context; cancellation cannot reach it", fd.Name.Name)
	}
}
