package analysis

import (
	"go/ast"
	"go/types"
)

// Small resolution helpers shared by the analyzers. Everything works off
// the type-checker's facts, never off raw identifier text, so aliased
// imports and shadowed names resolve the way the compiler sees them.

// pkgOf resolves a selector's base to the imported package it names, or
// nil when the base is not a package qualifier (a variable, a field, a
// shadowing local).
func pkgOf(info *types.Info, sel *ast.SelectorExpr) *types.Package {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return nil
	}
	return pn.Imported()
}

// isPkgSel reports whether sel is a qualified reference into the package
// with the given import path, returning the selected name.
func isPkgSel(info *types.Info, sel *ast.SelectorExpr, path string) (string, bool) {
	p := pkgOf(info, sel)
	if p == nil || p.Path() != path {
		return "", false
	}
	return sel.Sel.Name, true
}

// isFloat reports whether t's underlying type is a floating-point basic
// type (named float types count: what matters is how fmt renders them).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// takesContext reports whether the call's callee signature has a
// context.Context first parameter.
func takesContext(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return false
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	return sig.Params().At(0).Type().String() == "context.Context"
}

// hasContextParam reports whether the function declaration takes a
// context.Context parameter anywhere in its signature.
func hasContextParam(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if tv, ok := info.Types[field.Type]; ok && tv.Type != nil &&
			tv.Type.String() == "context.Context" {
			return true
		}
	}
	return false
}

// inspectOutsideFuncLits walks n, calling fn for every node that is not
// inside a nested function literal: the enclosing function's own
// statements, not work it packages up for someone else to run.
func inspectOutsideFuncLits(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		return fn(m)
	})
}
