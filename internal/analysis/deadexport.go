package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeadExport keeps the exported API down to what the program uses: an
// exported function or method of a non-main package needs a reference
// from a non-test file of the module (its own package and the examples
// count). An export only tests call is deleted with the tests that test
// only it, moved into its package's _test.go files, or — an oracle other
// packages' tests share — allowed with a reason naming its callers. A
// method named by some interface (in the program, anything it imports, or
// the predeclared error) is exempt: satisfying an interface is no visible
// reference. perfbench is its own module and never loaded, so an export
// only it calls needs an allow too.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc: "an exported function or method needs a non-test caller in the module; " +
		"test helpers move into _test.go files or carry an allow naming their callers",
	// internal/transient is the delay models' HSPICE-style oracle: its
	// own tests check circuit's closed-form delays against it.
	Exempt:     []string{"internal/transient"},
	RunProgram: runDeadExport,
}

// funcKey names a function across packages by its package path, receiver
// type and name: each package is type-checked against export data, so one
// declaration is a distinct *types.Func in every package that uses it.
func funcKey(fn *types.Func) string { return fn.Origin().FullName() }

func runDeadExport(prog *Program, report func(token.Pos, string)) {
	used := make(map[string]bool)
	for _, pkg := range prog.Packages {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[funcKey(fn)] = true
			}
		}
	}
	ifaceMethods := interfaceMethodNames(prog)
	for _, pkg := range prog.Packages {
		if pkg.Name == "main" {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() || fd.Recv != nil && ifaceMethods[fd.Name.Name] {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok && !used[funcKey(fn)] {
					report(fd.Name.Pos(), "exported "+funcKey(fn)+" has no caller outside tests; "+
						"delete it, move it into a _test.go file, or allow it naming who calls it")
				}
			}
		}
	}
}

// interfaceMethodNames collects every method name an interface declares:
// the predeclared error, the named interfaces of the program and of every
// package it imports (transitively), and the unnamed ones in its source.
func interfaceMethodNames(prog *Program) map[string]bool {
	names := map[string]bool{"Error": true}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range prog.Packages {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return names
}
