// Command pkgdoc is the CI documentation ratchet: it walks every Go
// package of the root module (nested modules are skipped) and fails when
// a package lacks a package comment or an exported top-level identifier
// lacks a doc comment.
//
// Usage (from the repository root):
//
//	go run ./scripts/ci/pkgdoc
//
// The check is syntactic (go/parser, no type checking), so it is fast
// and dependency-free. Test files are exempt, as are exported methods on
// unexported types' receivers only insofar as they still appear as
// top-level declarations — document those too; godoc readers see them
// through interfaces.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var problems []string
	err := filepath.Walk(".", func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			return nil
		}
		if name := info.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		// A nested go.mod starts another module (bench/): `go build ./...`
		// stops at that boundary and so does the ratchet.
		if path != "." {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		problems = append(problems, checkDir(path)...)
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pkgdoc: %v\n", err)
		os.Exit(2)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Printf("pkgdoc: %d documentation problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// checkDir parses one directory's non-test files and reports its
// documentation problems.
func checkDir(dir string) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("%s: parse error: %v", dir, err)}
	}
	var out []string
	for name, pkg := range pkgs {
		hasDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				hasDoc = true
			}
		}
		if !hasDoc {
			out = append(out, fmt.Sprintf("%s: package %s has no package comment", dir, name))
		}
		for _, f := range pkg.Files {
			out = append(out, checkFile(fset, f)...)
		}
	}
	return out
}

// checkFile reports the file's undocumented exported declarations.
func checkFile(fset *token.FileSet, f *ast.File) []string {
	var out []string
	report := func(pos token.Pos, kind, name string) {
		out = append(out, fmt.Sprintf("%s: exported %s %s has no doc comment",
			fset.Position(pos), kind, name))
	}
	for _, d := range f.Decls {
		switch decl := d.(type) {
		case *ast.FuncDecl:
			if decl.Name.IsExported() && decl.Doc == nil {
				report(decl.Pos(), "func", decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() && decl.Doc == nil && sp.Doc == nil && sp.Comment == nil {
						report(sp.Pos(), "type", sp.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						if n.IsExported() && decl.Doc == nil && sp.Doc == nil && sp.Comment == nil {
							report(n.Pos(), "value", n.Name)
						}
					}
				}
			}
		}
	}
	return out
}
