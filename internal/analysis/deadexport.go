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
// method is exempt when its receiver type, or a pointer to it, implements
// an interface that declares the method (one the program declares or
// imports, or the predeclared error): satisfying an interface is no
// visible reference. A method only named like an interface method is not.
// perfbench is its own module and never loaded, so an export only it
// calls needs an allow too.
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
	ifaces := interfacesByMethod(prog)
	for _, pkg := range prog.Packages {
		if pkg.Name == "main" {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || used[funcKey(fn)] || fd.Recv != nil && implementsAny(fn, ifaces[fn.Name()]) {
					continue
				}
				report(fd.Name.Pos(), "exported "+funcKey(fn)+" has no caller outside tests; "+
					"delete it, move it into a _test.go file, or allow it naming who calls it")
			}
		}
	}
}

// implementsAny reports whether method fn's receiver type, or a pointer
// to it, implements one of ifaces.
func implementsAny(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, it := range ifaces {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// interfacesByMethod indexes every interface the program can see by the
// names of the methods it declares: the predeclared error, the named
// interfaces of the program and of every package it imports
// (transitively), and the unnamed ones in its source.
func interfacesByMethod(prog *Program) map[string][]*types.Interface {
	index := make(map[string][]*types.Interface)
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				name := it.Method(i).Name()
				index[name] = append(index[name], it)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
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
	return index
}
