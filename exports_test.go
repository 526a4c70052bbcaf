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

// exportExemptions are exported functions that only tests call, each kept
// for a reason ROADMAP names. An exemption that no longer matches a finding
// fails the test too, so each goes as soon as its function does.
var exportExemptions = []string{
	"risa/internal/svc.Engine.History", // goes with ROADMAP 15(c)
}

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
	matched := make([]bool, len(exportExemptions))
	for _, f := range found {
		if i := slices.Index(exportExemptions, f.token); i >= 0 {
			matched[i] = true
			continue
		}
		t.Error(f)
	}
	for i, e := range exportExemptions {
		if !matched[i] {
			t.Errorf("the exemption for `%s` matches no finding: delete it", e)
		}
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

// unusedExports type-checks the non-test files of the modules in dirs (the
// first is the root module) in one universe and returns, sorted, the
// exported functions and methods of risa/internal/... that none of those
// files uses.
func unusedExports(dirs ...string) ([]finding, error) {
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
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	imported := map[string]bool{} // by a non-test file
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
		conf := types.Config{Importer: imp}
		if checked[p.ImportPath], err = conf.Check(p.ImportPath, fset, files, info); err != nil {
			return nil, err
		}
		for _, ip := range p.Imports {
			imported[ip] = true
		}
	}

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
		at := fset.Position(fn.Pos())
		file, _ := filepath.Rel(root, at.Filename)
		found = append(found, finding{filepath.ToSlash(file), at.Line, token, "is exported and only tests call it"})
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.ImportPath, "risa/internal/") || !imported[p.ImportPath] {
			continue
		}
		scope := checked[p.ImportPath].Scope()
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
