package analysis

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Loading: the driver needs full type information but the module is
// dependency-free, so instead of golang.org/x/tools/go/packages it asks
// the toolchain directly. `go list -export -deps` enumerates the target
// packages and every dependency along with the compiler's export-data
// file for each; targets are parsed from source and type-checked with an
// importer that reads dependencies from that export data — the exact
// facts the compiler itself recorded, with nothing re-implemented.

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath  string
	Name        string
	Dir         string
	Export      string
	Standard    bool
	DepOnly     bool
	Incomplete  bool
	GoFiles     []string
	CgoFiles    []string
	TestGoFiles []string
	// XTestGoFiles are the external (_test package) test sources; the
	// cross-kind equivalence suite lives in one of these.
	XTestGoFiles []string
	Error        *struct {
		Err string
	}
	Module *struct {
		Path string
	}
}

// Load enumerates and type-checks the packages matching patterns (go
// list syntax, e.g. "./..."), resolved relative to dir.
func Load(ctx context.Context, dir string, patterns []string) (*Program, error) {
	listed, err := goList(ctx, dir, append([]string{"-export", "-deps",
		"-json=ImportPath,Name,Dir,Export,Standard,DepOnly,Incomplete,GoFiles,CgoFiles,TestGoFiles,XTestGoFiles,Error,Module",
	}, patterns...)...)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string)
	var targets []listPackage
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			if p.Error != nil {
				return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
			}
			if p.Incomplete {
				return nil, fmt.Errorf("analysis: %s: package is incomplete; fix the build first", p.ImportPath)
			}
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	prog := &Program{Fset: fset}
	if prog.Complete, err = wholeModule(ctx, dir, targets); err != nil {
		return nil, err
	}
	for _, t := range targets {
		if len(t.GoFiles)+len(t.CgoFiles) == 0 {
			// Test-only directories (the root bench harness) have nothing
			// the per-package analyzers look at.
			continue
		}
		pkg, err := checkPackage(fset, imp, t)
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}

// goList runs `go list -e <args>` in dir and decodes its JSON stream.
func goList(ctx context.Context, dir string, args ...string) ([]listPackage, error) {
	cmd := exec.CommandContext(ctx, "go", append([]string{"list", "-e"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", args, err, stderr.String())
	}
	var pkgs []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
}

// wholeModule reports whether targets are every package of their module,
// the complete program whole-program rules need: go list -find names the
// module's packages, and targets are among them.
func wholeModule(ctx context.Context, dir string, targets []listPackage) (bool, error) {
	if len(targets) == 0 || targets[0].Module == nil {
		return false, nil
	}
	all, err := goList(ctx, dir, "-find", "-json=ImportPath", targets[0].Module.Path+"/...")
	return err == nil && len(all) == len(targets), err
}

// exportImporter builds the export-data importer over the go list
// results; one instance is shared across every target so each dependency
// is read once.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// checkPackage parses and type-checks one target package; test files are
// parsed for the program-level analyzers but stay outside the
// type-checked file set.
func checkPackage(fset *token.FileSet, imp types.Importer, t listPackage) (*Package, error) {
	pkg := &Package{Path: t.ImportPath, Name: t.Name, Dir: t.Dir}
	for _, name := range append(append([]string{}, t.GoFiles...), t.CgoFiles...) {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	for _, name := range append(append([]string{}, t.TestGoFiles...), t.XTestGoFiles...) {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		pkg.TestFiles = append(pkg.TestFiles, f)
	}
	var err error
	pkg.Types, pkg.Info, err = typeCheck(fset, imp, t.ImportPath, pkg.Files)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", t.ImportPath, err)
	}
	return pkg, nil
}

// typeCheck runs the type checker over one package's parsed files.
func typeCheck(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return tpkg, info, nil
}

// LoadTree loads a GOPATH-style fixture tree: every directory under root
// that contains .go files is a package whose import path is its
// root-relative slash path. Fixture packages may import each other (the
// kindfixture fixtures carry a fake work registry) and the standard
// library; stdlib imports resolve through one `go list -export` call.
// This is the analysistest loader — production loading goes through Load.
func LoadTree(ctx context.Context, root string) (*Program, error) {
	fset := token.NewFileSet()
	type treePkg struct {
		path    string
		dir     string
		files   []*ast.File
		tests   []*ast.File
		imports map[string]bool
	}
	pkgs := make(map[string]*treePkg)
	external := make(map[string]bool)

	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".go") {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		path := filepath.ToSlash(rel)
		tp := pkgs[path]
		if tp == nil {
			tp = &treePkg{path: path, dir: filepath.Dir(p), imports: make(map[string]bool)}
			pkgs[path] = tp
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		if strings.HasSuffix(d.Name(), "_test.go") {
			tp.tests = append(tp.tests, f)
			return nil
		}
		tp.files = append(tp.files, f)
		for _, spec := range f.Imports {
			ip := strings.Trim(spec.Path.Value, `"`)
			tp.imports[ip] = true
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: walking fixture tree %s: %v", root, err)
	}

	var order []string
	for path, tp := range pkgs {
		order = append(order, path)
		for ip := range tp.imports {
			if pkgs[ip] == nil {
				external[ip] = true
			}
		}
	}
	sort.Strings(order)

	// Resolve the external (stdlib) imports once.
	exports := make(map[string]string)
	if len(external) > 0 {
		var paths []string
		for ip := range external {
			paths = append(paths, ip)
		}
		sort.Strings(paths)
		listed, err := goList(ctx, "", append([]string{"-export", "-deps", "-json=ImportPath,Export"}, paths...)...)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}

	// Type-check tree packages in dependency order, feeding each checked
	// package back into the importer so later fixtures can import it.
	imp := &treeImporter{
		local:    make(map[string]*types.Package),
		fallback: exportImporter(fset, exports),
	}
	prog := &Program{Fset: fset, Complete: true}
	done := make(map[string]bool)
	var check func(path string) error
	check = func(path string) error {
		if done[path] {
			return nil
		}
		done[path] = true
		tp := pkgs[path]
		for ip := range tp.imports {
			if pkgs[ip] != nil {
				if err := check(ip); err != nil {
					return err
				}
			}
		}
		name := ""
		if len(tp.files) > 0 {
			name = tp.files[0].Name.Name
		}
		pkg := &Package{Path: path, Name: name, Dir: tp.dir, Files: tp.files, TestFiles: tp.tests}
		var err error
		pkg.Types, pkg.Info, err = typeCheck(fset, imp, path, tp.files)
		if err != nil {
			return fmt.Errorf("analysis: type-checking fixture %s: %v", path, err)
		}
		imp.local[path] = pkg.Types
		prog.Packages = append(prog.Packages, pkg)
		return nil
	}
	for _, path := range order {
		if err := check(path); err != nil {
			return nil, err
		}
	}
	sort.Slice(prog.Packages, func(i, j int) bool { return prog.Packages[i].Path < prog.Packages[j].Path })
	return prog, nil
}

// treeImporter resolves fixture-local packages first and falls back to
// export data for everything else.
type treeImporter struct {
	local    map[string]*types.Package
	fallback types.Importer
}

func (t *treeImporter) Import(path string) (*types.Package, error) {
	if p, ok := t.local[path]; ok {
		return p, nil
	}
	return t.fallback.Import(path)
}
