package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"strconv"
)

// KindFixture closes the one gap the runtime equivalence suite leaves:
// work.TestAllKindsEquivalentAcrossExecutionShapes fails when a
// registered kind has no fixture — but only when the suite actually
// runs, linked against the registering package. Statically, every
// work.Register call site must name its kind with a string constant and
// that kind must appear as a key in the suite's fixture table (the
// fixtures() map in internal/work's tests), either as a string literal
// matching the kind's value or as the package-qualified constant
// (grid.WorkKind) matching the Register argument. The check is
// whole-program: it runs only on a complete load (repolint ./...).
var KindFixture = &Analyzer{
	Name: "kindfixture",
	Doc: "every work.Register call site needs a matching entry in the " +
		"cross-kind equivalence suite's fixtures() table",
	RunProgram: runKindFixture,
}

// registerSite is one work.Register(kind, ...) call.
type registerSite struct {
	pos       token.Pos
	value     string // resolved constant value ("" when non-constant)
	constant  bool
	constName string // syntactic name of the kind expression, when an identifier
	pkgName   string // name of the registering package
}

// fixtureKey is one key of the fixtures() map literal.
type fixtureKey struct {
	literal string // set for string-literal keys
	pkg     string // set with sel for qualified constant keys
	sel     string
}

func runKindFixture(prog *Program, report func(token.Pos, string)) {
	var sites []registerSite
	var workPkg *Package
	for _, pkg := range prog.Packages {
		if pkg.Name == "work" && workPkg == nil {
			workPkg = pkg
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Register" {
					return true
				}
				if p := pkgOf(pkg.Info, sel); p == nil || p.Name() != "work" {
					return true
				}
				site := registerSite{pos: call.Pos(), pkgName: pkg.Name}
				if tv, ok := pkg.Info.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
					site.constant = true
					site.value = constant.StringVal(tv.Value)
				}
				switch arg := call.Args[0].(type) {
				case *ast.Ident:
					site.constName = arg.Name
				case *ast.SelectorExpr:
					site.constName = arg.Sel.Name
				}
				sites = append(sites, site)
				return true
			})
		}
	}
	if len(sites) == 0 || workPkg == nil {
		return
	}

	keys, found := fixtureKeys(workPkg)
	for _, site := range sites {
		if !site.constant {
			report(site.pos, "work.Register kind must be a string constant so the equivalence fixture can be checked statically")
			continue
		}
		if !found {
			report(site.pos, "cross-kind equivalence fixture table not found: internal/work's tests need a fixtures() func returning map[string]work.Batch")
			continue
		}
		if !matchesFixture(site, keys) {
			report(site.pos, "registered kind "+strconv.Quote(site.value)+" has no entry in the cross-kind equivalence suite's fixtures() table; add one so every execution shape is pinned for it")
		}
	}
}

// fixtureKeys extracts the keys of the map literal returned by the
// fixtures() function in the work package's test files.
func fixtureKeys(workPkg *Package) ([]fixtureKey, bool) {
	var keys []fixtureKey
	found := false
	for _, f := range workPkg.TestFiles {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "fixtures" || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				cl, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				if _, ok := cl.Type.(*ast.MapType); !ok {
					return true
				}
				found = true
				for _, elt := range cl.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					switch key := kv.Key.(type) {
					case *ast.BasicLit:
						if key.Kind == token.STRING {
							if v, err := strconv.Unquote(key.Value); err == nil {
								keys = append(keys, fixtureKey{literal: v})
							}
						}
					case *ast.SelectorExpr:
						if id, ok := key.X.(*ast.Ident); ok {
							keys = append(keys, fixtureKey{pkg: id.Name, sel: key.Sel.Name})
						}
					case *ast.Ident:
						// An unqualified constant: only meaningful for kinds
						// registered by the work package itself.
						keys = append(keys, fixtureKey{pkg: "work", sel: key.Name})
					}
				}
				return true
			})
		}
	}
	return keys, found
}

// matchesFixture reports whether any fixture key covers the Register
// site: a literal equal to the kind's value, or a qualified constant
// whose package and name match the registering package and the constant
// used at the call.
func matchesFixture(site registerSite, keys []fixtureKey) bool {
	for _, k := range keys {
		if k.literal != "" && k.literal == site.value {
			return true
		}
		if k.sel != "" && site.constName != "" &&
			k.sel == site.constName && k.pkg == site.pkgName {
			return true
		}
	}
	return false
}
