package risa

import (
	"bytes"
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
	"slices"
	"strings"
	"testing"
)

// TestExportedFuncsHaveCallers fails on any exported function or method in
// internal/ that no non-test file of the root module or of bench/ uses: an
// API only tests call is code the program does not need. Methods on
// unexported types, the packages only tests import, and methods that satisfy
// an interface (the scanned code's own, fmt.Stringer, error, sort.Interface
// and math/rand.Source64) are not findings.
func TestExportedFuncsHaveCallers(t *testing.T) {
	found, err := unusedExports(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Error(f)
	}
}

// TestFieldsAreRead fails on any field of a struct type declared in
// internal/ that no non-test file of the root module or of bench/ reads:
// a field the program only writes is bookkeeping nothing uses. A read is
// any use that is not the target of =, :=, op= or ++/--, nor a
// composite-literal key; reaching a promoted field or method reads the
// embedded fields on the way. The packages only tests import are not
// scanned.
func TestFieldsAreRead(t *testing.T) {
	found, err := unreadFields(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Error(f)
	}
}

// TestSimulatorLinksNoScheduler fails when a non-test dependency of the
// simulator, the daemon or the scheduler contract is a scheduler package:
// they drive RISA and the baselines through sched.Scheduler, and the
// binaries and tests that build one by name import its package themselves.
func TestSimulatorLinksNoScheduler(t *testing.T) {
	pkgs, err := goList(".", "./internal/sim", "./internal/svc", "./internal/sched")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, dep := range p.Deps {
			if dep == "risa/internal/core" || dep == "risa/internal/baseline" {
				t.Errorf("%s links %s", p.ImportPath, dep)
			}
		}
	}
}

// listedPkg is the part of `go list -json` the tests read.
type listedPkg struct {
	ImportPath, Dir, Export string
	GoFiles, Imports, Deps  []string
	Standard                bool
}

// listPackages lists the packages of the module in dir and all their
// dependencies, dependencies first, with the export data of each built.
// fmt, sort and math/rand are listed too: they declare interfaces the scan
// counts.
func listPackages(dir string) ([]listedPkg, error) {
	return goList(dir, "-deps", "-export", "./...", "fmt", "sort", "math/rand")
}

// goList runs `go list -json` with args in dir and decodes its packages.
func goList(dir string, args ...string) ([]listedPkg, error) {
	args = append([]string{"list", "-json"}, args...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, stderr.Bytes())
	}
	var pkgs []listedPkg
	for d := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPkg
		if err := d.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// universe is the non-test files of the root module and bench/,
// type-checked together: what TestExportedFuncsHaveCallers and
// TestFieldsAreRead scan.
type universe struct {
	root     string // working directory, for relative positions
	fset     *token.FileSet
	pkgs     []listedPkg
	checked  map[string]*types.Package
	files    map[string][]*ast.File // by import path
	info     *types.Info
	imported map[string]bool // by a non-test file
	imp      types.Importer
}

// loadUniverse type-checks the non-test files of the modules in dirs (the
// first is the root module) in one universe.
func loadUniverse(dirs ...string) (*universe, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	var pkgs []listedPkg
	seen := map[string]bool{}
	for _, dir := range dirs {
		listed, err := listPackages(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}

	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	u := &universe{
		root: root, fset: fset, pkgs: pkgs,
		checked: map[string]*types.Package{},
		files:   map[string][]*ast.File{},
		info: &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		imported: map[string]bool{},
	}
	u.imp = importerFunc(func(path string) (*types.Package, error) {
		if p := u.checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: u.imp}
		if u.checked[p.ImportPath], err = conf.Check(p.ImportPath, fset, files, u.info); err != nil {
			return nil, err
		}
		u.files[p.ImportPath] = files
		for _, ip := range p.Imports {
			u.imported[ip] = true
		}
	}
	return u, nil
}

// at returns pos as a finding's file (relative to the root) and line.
func (u *universe) at(pos token.Pos) (string, int) {
	at := u.fset.Position(pos)
	file, _ := filepath.Rel(u.root, at.Filename)
	return filepath.ToSlash(file), at.Line
}

// unusedExports returns, sorted, the exported functions and methods of
// risa/internal/... that no non-test file of the modules in dirs uses.
func unusedExports(dirs ...string) ([]finding, error) {
	u, err := loadUniverse(dirs...)
	if err != nil {
		return nil, err
	}
	info, imp := u.info, u.imp
	used := map[types.Object]bool{}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	var ifaces []types.Type
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() && it.NumMethods() > 0 {
			ifaces = append(ifaces, tv.Type)
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type())
	for _, name := range []string{"fmt.Stringer", "sort.Interface", "math/rand.Source64"} {
		path, typ, _ := strings.Cut(name, ".")
		p, err := imp.Import(path)
		if err != nil {
			return nil, err
		}
		ifaces = append(ifaces, p.Scope().Lookup(typ).Type())
	}
	satisfies := func(t types.Type, m *types.Func) bool {
		return slices.ContainsFunc(ifaces, func(it types.Type) bool {
			obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name())
			iface := it.Underlying().(*types.Interface)
			return obj != nil && (types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface))
		})
	}

	var found []finding
	report := func(fn *types.Func, token string) {
		if used[fn] {
			return
		}
		file, line := u.at(fn.Pos())
		found = append(found, finding{file, line, token, "is exported and only tests call it"})
	}
	for _, p := range u.pkgs {
		if !strings.HasPrefix(p.ImportPath, "risa/internal/") || !u.imported[p.ImportPath] {
			continue
		}
		scope := u.checked[p.ImportPath].Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					report(obj, p.ImportPath+"."+name)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || !obj.Exported() || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() && !satisfies(named, m) {
						report(m, p.ImportPath+"."+name+"."+m.Name())
					}
				}
			}
		}
	}
	slices.SortFunc(found, func(a, b finding) int { return strings.Compare(a.token, b.token) })
	return found, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// unreadFields returns, sorted, the fields of the struct types declared in
// risa/internal/... that no non-test file of the modules in dirs reads.
func unreadFields(dirs ...string) ([]finding, error) {
	u, err := loadUniverse(dirs...)
	if err != nil {
		return nil, err
	}
	written := map[*ast.Ident]bool{} // uses that only write
	target := func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			written[e] = true
		case *ast.SelectorExpr:
			written[e.Sel] = true
		}
	}
	for _, files := range u.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						written[id] = true
					}
				}
				return true
			})
		}
	}
	read := map[*types.Var]bool{}
	for id, obj := range u.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
			read[v.Origin()] = true
		}
	}
	for _, sel := range u.info.Selections {
		typ := sel.Recv()
		for _, i := range sel.Index()[:len(sel.Index())-1] {
			if p, ok := typ.(*types.Pointer); ok {
				typ = p.Elem()
			}
			f := typ.Underlying().(*types.Struct).Field(i)
			read[f.Origin()] = true
			typ = f.Type()
		}
	}

	var found []finding
	for _, p := range u.pkgs {
		if !strings.HasPrefix(p.ImportPath, "risa/internal/") || !u.imported[p.ImportPath] {
			continue
		}
		scope := u.checked[p.ImportPath].Scope()
		for _, name := range scope.Names() {
			obj, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || obj.IsAlias() {
				continue
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Name() != "_" && !read[f] {
					file, line := u.at(f.Pos())
					found = append(found, finding{file, line, p.ImportPath + "." + name + "." + f.Name(), "is a field no non-test file reads"})
				}
			}
		}
	}
	slices.SortFunc(found, func(a, b finding) int { return strings.Compare(a.token, b.token) })
	return found, nil
}
