package risa

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// checkedDocs are the standing documents whose every reference must
// resolve. ROADMAP.md and CHANGES.md are history: they cite what has since
// gone, and are not checked.
var checkedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md", ".claude/skills/verify/SKILL.md"}

// linkOnlyDocs are checked for relative links only.
var linkOnlyDocs = []string{"PAPERS.md"}

// docExemptions are current findings in bench/README.md, which changes only
// together with the benchmark harness. An exemption that no longer matches
// a finding fails the test too, so each goes as soon as its line is fixed.
var docExemptions = []finding{
	{file: "bench/README.md", line: 475, token: "bench_test.go"},
	{file: "bench/README.md", line: 477, token: "scripts/ci/allocguard.sh"},
	{file: "bench/README.md", line: 477, token: "scripts/ci/benchguard.sh"},
}

// TestDocs is the documentation check: relative links, cited files and
// lines, Go identifiers, test names, DESIGN.md sections and metric names in
// the standing docs all resolve against the tree, every ```go walkthrough
// is the code of the Example it names, and every package and exported
// declaration of the root module has a doc comment.
func TestDocs(t *testing.T) {
	s, err := scanDocs(os.DirFS("."), os.DirFS(filepath.Join(build.Default.GOROOT, "src")))
	if err != nil {
		t.Fatal(err)
	}
	matched := make([]bool, len(docExemptions))
	for _, f := range s.found {
		i := slices.IndexFunc(docExemptions, func(e finding) bool {
			return e.file == f.file && e.line == f.line && e.token == f.token
		})
		if i >= 0 {
			matched[i] = true
			continue
		}
		t.Error(f)
	}
	for i, e := range docExemptions {
		if !matched[i] {
			t.Errorf("%s:%d: the exemption for `%s` matches no finding: delete it", e.file, e.line, e.token)
		}
	}
	t.Logf("checked %v", s.checked)
}

// A finding is one reference that does not resolve, or one missing doc
// comment.
type finding struct {
	file  string // slash-separated, relative to the repository root
	line  int    // 0 when the finding is about a whole package
	token string
	msg   string
}

func (f finding) String() string {
	at := f.file
	if f.line > 0 {
		at += ":" + strconv.Itoa(f.line)
	}
	return fmt.Sprintf("%s: `%s` %s", at, f.token, f.msg)
}

var (
	linkRE   = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	spanRE   = regexp.MustCompile("`([^`]+)`")
	docSecRE = regexp.MustCompile(`(DESIGN(?:\.md)?\)?\s+)?§(\d+(?:\.\d+)?)`)
	goSecRE  = regexp.MustCompile(`DESIGN(?:\.md)?\)?(?:\s|//)*§(\d+(?:\.\d+)?)`)
	headRE   = regexp.MustCompile(`(?m)^#{2,3} (\d+(?:\.\d+)?)\.? `)
	pathRE   = regexp.MustCompile(`^(?:\./)?((?:[\w.-]+/)*[\w.-]+\.(?:go|sh))(?::(\d+)(?:[–-](\d+))?)?$`)
	dirRE    = regexp.MustCompile(`^(?:scripts|internal|cmd)/[\w./-]+$`)
	fileRE   = regexp.MustCompile(`\.(?:json|md|wal|gob|txt|csv|ya?ml|mod|pprof|out)$`)
	testRE   = regexp.MustCompile(`^(?:Test|Fuzz|Example)[\w*]*$`)
	promRE   = regexp.MustCompile(`^risasvc_[\w*]+`)
	goRefRE  = regexp.MustCompile(`^[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+$`)
	metricRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(?:\.[a-z0-9_*-]+)+$`)
	nameRE   = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	callRE   = regexp.MustCompile(`[({].*[)}]$`)
)

// docScan holds what the references in the docs resolve against: the
// repository's paths, the syntax trees of its Go files (bench/ included),
// and the standard library packages it imports, parsed on first use.
type docScan struct {
	repo, std fs.FS
	paths     []string              // every file and directory but .git's
	src       map[string][]byte     // Go file → source
	pkgs      map[string][]*goPkg   // package name → the repository's packages of that name
	types     map[string][]*goType  // type name → the repository's types of that name
	stdPaths  map[string][]string   // package name → standard import paths the repository uses
	stdPkgs   map[string]*stdPkg    // import path → the package, once read
	tests     []string              // Test, Fuzz and Example functions
	examples  map[string][][]string // Example function → the code lines of each body so named
	metrics   []string              // BENCHMARK.json names and the risasvc_ names of GET /metrics
	spaces    map[string]bool       // first segments of the dotted metric names
	sections  map[string]bool       // DESIGN.md's numbered headings
	found     []finding
	checked   map[string]int // references checked, by rule
}

// A goPkg is one package's top-level names.
type goPkg struct {
	decls map[string]ast.Expr // func, var or const → its declared type (nil if none)
	types map[string]*goType
}

// A goType is a named type's fields and methods; a field keeps its type
// expression, so a path of fields can be followed.
type goType struct {
	pkg     *goPkg
	members map[string]ast.Expr // nil for a method
	embeds  []ast.Expr
}

func newPkg() *goPkg { return &goPkg{decls: map[string]ast.Expr{}, types: map[string]*goType{}} }

func (p *goPkg) typ(name string) *goType {
	t := p.types[name]
	if t == nil {
		t = &goType{pkg: p, members: map[string]ast.Expr{}}
		p.types[name] = t
	}
	return t
}

// scanDocs checks the docs of the repository tree repo; std is the
// standard library's source tree (GOROOT/src).
func scanDocs(repo, std fs.FS) (*docScan, error) {
	s := &docScan{repo: repo, std: std, src: map[string][]byte{}, pkgs: map[string][]*goPkg{},
		types: map[string][]*goType{}, stdPaths: map[string][]string{}, stdPkgs: map[string]*stdPkg{},
		examples: map[string][][]string{}, spaces: map[string]bool{}, sections: map[string]bool{}, checked: map[string]int{}}
	modules := map[string]bool{} // directories holding a go.mod below the root
	err := fs.WalkDir(repo, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if p == ".git" {
			return fs.SkipDir
		}
		s.paths = append(s.paths, p)
		if d.Name() == "go.mod" && path.Dir(p) != "." {
			modules[path.Dir(p)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := s.parseRepo(modules); err != nil {
		return nil, err
	}
	if err := s.readMetrics(); err != nil {
		return nil, err
	}
	design, err := fs.ReadFile(repo, "DESIGN.md")
	if err != nil {
		return nil, err
	}
	for _, m := range headRE.FindAllSubmatch(design, -1) {
		s.sections[string(m[1])] = true
	}
	for _, doc := range append(slices.Clone(checkedDocs), linkOnlyDocs...) {
		b, err := fs.ReadFile(repo, doc)
		if err != nil {
			s.report(doc, 0, doc, "is missing")
			continue
		}
		s.checkLinks(doc, string(b))
		if slices.Contains(checkedDocs, doc) {
			s.checkDoc(doc, string(b))
			s.checkWalkthroughs(doc, string(b))
		}
	}
	for _, p := range s.paths {
		if b, ok := s.src[p]; ok {
			for _, m := range goSecRE.FindAllSubmatchIndex(b, -1) {
				s.checkSection(p, lineAt(b, m[0]), string(b[m[2]:m[3]]))
			}
		}
	}
	return s, nil
}

func (s *docScan) report(file string, line int, token, msg string) {
	s.found = append(s.found, finding{file, line, token, msg})
}

// parseRepo parses every Go file outside dot and testdata directories,
// collects declarations, test names and standard imports, and holds the
// root module's non-test files to the doc-comment ratchet.
func (s *docScan) parseRepo(modules map[string]bool) error {
	fset := token.NewFileSet()
	byDir := map[string]*goPkg{}
	documented := map[string]bool{} // root-module package (dir + name) → has a package comment
	for _, p := range s.paths {
		if !strings.HasSuffix(p, ".go") || slices.ContainsFunc(strings.Split(p, "/"), func(e string) bool {
			return e == "testdata" || strings.HasPrefix(e, ".")
		}) {
			continue
		}
		b, err := fs.ReadFile(s.repo, p)
		if err != nil {
			return err
		}
		s.src[p] = b
		f, err := parser.ParseFile(fset, p, b, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		key := path.Dir(p) + " " + f.Name.Name
		pkg := byDir[key]
		if pkg == nil {
			pkg = newPkg()
			byDir[key] = pkg
			s.pkgs[f.Name.Name] = append(s.pkgs[f.Name.Name], pkg)
		}
		addDecls(pkg, f)
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value) // the parser has checked the literal
			if first, _, _ := strings.Cut(ip, "/"); !strings.Contains(first, ".") && first != "risa" {
				name := path.Base(ip)
				if !slices.Contains(s.stdPaths[name], ip) {
					s.stdPaths[name] = append(s.stdPaths[name], ip)
				}
			}
		}
		test := strings.HasSuffix(p, "_test.go")
		if test {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && testRE.MatchString(fn.Name.Name) {
					s.tests = append(s.tests, fn.Name.Name)
					if strings.HasPrefix(fn.Name.Name, "Example") && fn.Body != nil {
						body := b[fset.Position(fn.Body.Lbrace).Offset+1 : fset.Position(fn.Body.Rbrace).Offset]
						s.examples[fn.Name.Name] = append(s.examples[fn.Name.Name], codeLines(string(body)))
					}
				}
			}
		}
		if !test && inRootModule(p, modules) {
			documented[key] = documented[key] || f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != ""
			s.checkDocComments(fset, f)
		}
	}
	for key, ok := range documented {
		if !ok {
			dir, name, _ := strings.Cut(key, " ")
			s.report(dir, 0, name, "has no package comment")
		}
	}
	for _, pkgs := range s.pkgs {
		for _, p := range pkgs {
			for name, t := range p.types {
				s.types[name] = append(s.types[name], t)
			}
		}
	}
	return nil
}

func inRootModule(p string, modules map[string]bool) bool {
	for d := path.Dir(p); d != "."; d = path.Dir(d) {
		if modules[d] {
			return false
		}
	}
	return true
}

// checkDocComments reports the file's exported top-level declarations that
// have no doc comment.
func (s *docScan) checkDocComments(fset *token.FileSet, f *ast.File) {
	report := func(pos token.Pos, kind, name string) {
		at := fset.Position(pos)
		s.report(at.Filename, at.Line, name, "is an exported "+kind+" with no doc comment")
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				report(d.Pos(), "func", d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
						report(sp.Pos(), "type", sp.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						if n.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
							report(n.Pos(), "value", n.Name)
						}
					}
				}
			}
		}
	}
}

// addDecls records the file's top-level names, and each type's fields and
// methods.
func addDecls(p *goPkg, f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.decls[d.Name.Name] = nil
			} else if recv := baseName(d.Recv.List[0].Type); recv != "" {
				p.typ(recv).members[d.Name.Name] = nil
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					addMembers(p.typ(sp.Name.Name), sp.Type)
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						p.decls[n.Name] = sp.Type
					}
				}
			}
		}
	}
}

func addMembers(t *goType, e ast.Expr) {
	switch e := e.(type) {
	case *ast.StructType:
		for _, f := range e.Fields.List {
			if len(f.Names) == 0 {
				t.members[baseName(f.Type)] = f.Type
				t.embeds = append(t.embeds, f.Type)
			}
			for _, n := range f.Names {
				t.members[n.Name] = f.Type
			}
		}
	case *ast.InterfaceType:
		for _, m := range e.Methods.List {
			if len(m.Names) == 0 {
				t.embeds = append(t.embeds, m.Type)
			}
			for _, n := range m.Names {
				t.members[n.Name] = nil
			}
		}
	default: // a type defined on another keeps its fields
		t.embeds = append(t.embeds, e)
	}
}

// baseName is the type name under pointers and type arguments.
func baseName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// packages returns the packages a reference's head may name: the
// repository's, and the standard ones it imports under that name. A
// standard package is parsed only in the files that may declare want, the
// name looked up in it (or its methods): all of runtime takes longer to
// parse than the rest of the scan.
func (s *docScan) packages(name, want string) []*goPkg {
	pkgs := s.pkgs[name]
	for _, ip := range s.stdPaths[name] {
		p := s.stdPkgs[ip]
		if p == nil {
			p = s.readStd(ip)
			s.stdPkgs[ip] = p
		}
		if !p.asked[want] {
			p.asked[want] = true
			for file, b := range p.unparsed {
				if mayDeclare(b, want) {
					delete(p.unparsed, file)
					if f, err := parser.ParseFile(token.NewFileSet(), file, b, parser.SkipObjectResolution); err == nil {
						addDecls(p.goPkg, f)
					}
				}
			}
		}
		pkgs = append(pkgs, p.goPkg)
	}
	return pkgs
}

// mayDeclare reports whether src may declare name, or a method on it: a
// cheap superset of the files that do, tested with literal searches.
func mayDeclare(src []byte, name string) bool {
	for _, form := range [][2]string{{"func ", ""}, {"type ", " "}, {"var ", " "}, {"const ", " "},
		{"\t", " "}, {"\t", ","}, {" ", ")"}, {"*", ")"}, {" ", "["}} {
		if bytes.Contains(src, []byte(form[0]+name+form[1])) {
			return true
		}
	}
	return false
}

// A stdPkg is a standard package whose files for this platform are read
// and parsed as lookups need them.
type stdPkg struct {
	*goPkg
	unparsed map[string][]byte
	asked    map[string]bool // names already looked for
}

func (s *docScan) readStd(ip string) *stdPkg {
	p := &stdPkg{newPkg(), map[string][]byte{}, map[string]bool{}}
	ctxt := build.Default
	ctxt.JoinPath = path.Join
	ctxt.OpenFile = func(name string) (io.ReadCloser, error) { return s.std.Open(name) }
	ents, _ := fs.ReadDir(s.std, ip) // a package this GOROOT lacks declares nothing: its references fail
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := ctxt.MatchFile(ip, name); err != nil || !ok {
			continue
		}
		if b, err := fs.ReadFile(s.std, path.Join(ip, name)); err == nil { // as above
			p.unparsed[name] = b
		}
	}
	return p
}

// resolves reports whether pkg.Ident[.member…] or Type.member[.member…]
// names a declaration.
func (s *docScan) resolves(parts []string) bool {
	for _, p := range s.packages(parts[0], parts[1]) {
		if s.inPackage(p, parts[1:]) {
			return true
		}
	}
	for _, t := range s.types[parts[0]] {
		if s.member(t, parts[1:], 0) {
			return true
		}
	}
	return false
}

func (s *docScan) inPackage(p *goPkg, parts []string) bool {
	if t := p.types[parts[0]]; t != nil {
		return s.member(t, parts[1:], 0)
	}
	typ, ok := p.decls[parts[0]]
	if !ok || len(parts) == 1 {
		return ok
	}
	for _, t := range s.typeOf(p, typ) {
		if s.member(t, parts[1:], 0) {
			return true
		}
	}
	return false
}

// member follows a path of fields and a last field or method from t,
// through embedded types.
func (s *docScan) member(t *goType, parts []string, depth int) bool {
	if len(parts) == 0 {
		return true
	}
	if typ, ok := t.members[parts[0]]; ok {
		if len(parts) == 1 {
			return true
		}
		for _, next := range s.typeOf(t.pkg, typ) {
			if s.member(next, parts[1:], 0) {
				return true
			}
		}
		return false
	}
	if depth > 8 {
		return false
	}
	for _, e := range t.embeds {
		for _, et := range s.typeOf(t.pkg, e) {
			if s.member(et, parts, depth+1) {
				return true
			}
		}
	}
	return false
}

// typeOf returns the named types an expression in package p refers to,
// under pointers, slices and map values.
func (s *docScan) typeOf(p *goPkg, e ast.Expr) []*goType {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ArrayType:
			e = x.Elt
		case *ast.MapType:
			e = x.Value
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			if t := p.types[x.Name]; t != nil {
				return []*goType{t}
			}
			return nil
		case *ast.SelectorExpr:
			pkg, ok := x.X.(*ast.Ident)
			if !ok {
				return nil
			}
			var out []*goType
			for _, q := range s.packages(pkg.Name, x.Sel.Name) {
				if t := q.types[x.Sel.Name]; t != nil {
					out = append(out, t)
				}
			}
			return out
		case *ast.StructType, *ast.InterfaceType:
			t := &goType{pkg: p, members: map[string]ast.Expr{}}
			addMembers(t, x)
			return []*goType{t}
		default:
			return nil
		}
	}
}

// readMetrics collects the metric names: BENCHMARK.json's, and the
// risasvc_ names internal/svc/metrics.go writes, each of which it passes
// as a call's first argument (metric, gauge, writeHistogram).
func (s *docScan) readMetrics() error {
	b, err := fs.ReadFile(s.repo, "BENCHMARK.json")
	if err != nil {
		return err
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return err
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		s.metrics = append(s.metrics, m.Name)
		if first, _, dotted := strings.Cut(m.Name, "."); dotted {
			s.spaces[first] = true
		}
	}
	src, err := fs.ReadFile(s.repo, "internal/svc/metrics.go")
	if err != nil {
		return err
	}
	f, err := parser.ParseFile(token.NewFileSet(), "metrics.go", src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && len(call.Args) > 0 {
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, _ := strconv.Unquote(lit.Value); nameRE.MatchString(v) {
					s.metrics = append(s.metrics, "risasvc_"+v)
				}
			}
		}
		return true
	})
	return nil
}

// isMetric reports whether tok is a metric name, a glob over metric names,
// a dotted family prefix of one, or a Prometheus series of a histogram.
// The callers' patterns hold no '[' or '\\', so path.Match cannot fail.
func (s *docScan) isMetric(tok string) bool {
	for _, m := range s.metrics {
		if ok, _ := path.Match(tok, m); ok || strings.HasPrefix(m, tok+".") {
			return true
		}
		for _, series := range []string{"_bucket", "_sum", "_count"} {
			if ok, _ := path.Match(tok, m+series); ok {
				return true
			}
		}
	}
	return false
}

func (s *docScan) checkLinks(doc, text string) {
	for _, m := range linkRE.FindAllStringSubmatchIndex(text, -1) {
		target := text[m[2]:m[3]]
		if strings.HasPrefix(target, "#") || strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
			continue
		}
		s.checked["links"]++
		p := path.Join(path.Dir(doc), strings.SplitN(target, "#", 2)[0])
		if _, err := fs.Stat(s.repo, p); err != nil {
			s.report(doc, lineAt([]byte(text), m[0]), target, "is a link to nothing")
		}
	}
}

// checkDoc checks a doc's § references and every code span outside fenced
// blocks. A code span does not cross a blank line, so spans are paired
// paragraph by paragraph.
func (s *docScan) checkDoc(doc, text string) {
	lines := strings.Split(text, "\n")
	fenced := false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	body := strings.Join(lines, "\n")
	for _, m := range docSecRE.FindAllStringSubmatchIndex(body, -1) {
		num := body[m[4]:m[5]]
		if m[2] >= 0 || doc == "DESIGN.md" && !strings.Contains(num, ".") {
			s.checkSection(doc, lineAt([]byte(body), m[0]), num)
		}
	}
	start := 0
	for _, para := range strings.Split(body, "\n\n") {
		for _, m := range spanRE.FindAllStringSubmatchIndex(para, -1) {
			tok := strings.Join(strings.Fields(para[m[2]:m[3]]), " ")
			s.checkSpan(doc, lineAt([]byte(body), start+m[0]), tok)
		}
		start += len(para) + 2
	}
}

// checkWalkthroughs holds each ```go block of a doc to the Example function
// that a code span in the paragraph above it names: every code line of the
// block must appear, in order, in that function's body. Lines compare as
// codeLine reads them, so comment-only lines, `// …` elisions among them,
// are skipped. A named Example that no test declares is the span rule's
// finding, not this one's.
func (s *docScan) checkWalkthroughs(doc, text string) {
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != "```go" {
			continue
		}
		fence, end := i, i
		for end > 0 && strings.TrimSpace(lines[end-1]) == "" {
			end--
		}
		start := end
		for start > 0 && strings.TrimSpace(lines[start-1]) != "" {
			start--
		}
		var names []string
		for _, m := range spanRE.FindAllStringSubmatch(strings.Join(lines[start:end], "\n"), -1) {
			if strings.HasPrefix(m[1], "Example") {
				names = append(names, m[1])
			}
		}
		var code []string
		var at []int // code[k] is on line at[k], 0-based
		for i++; i < len(lines) && !strings.HasPrefix(strings.TrimSpace(lines[i]), "```"); i++ {
			if c := codeLine(lines[i]); c != "" {
				code, at = append(code, c), append(at, i)
			}
		}
		s.checked["walkthroughs"]++
		if len(names) == 0 {
			s.report(doc, fence+1, "Example", "is named by no code span in the paragraph above this ```go block")
			continue
		}
		matched := -1
		for _, name := range names {
			for _, body := range s.examples[name] {
				matched = max(matched, inOrder(code, body))
			}
		}
		if matched >= 0 && matched < len(code) {
			s.report(doc, at[matched]+1, code[matched], "is not in the body of "+strings.Join(names, " or ")+" in this block's order")
		}
	}
}

// inOrder is how many of want, from the first, appear in body in order.
func inOrder(want, body []string) int {
	j := 0
	for i, w := range want {
		for j < len(body) && body[j] != w {
			j++
		}
		if j == len(body) {
			return i
		}
		j++
	}
	return len(want)
}

// codeLines is the non-empty code lines of Go source, as codeLine reads
// them.
func codeLines(src string) []string {
	var out []string
	for _, l := range strings.Split(src, "\n") {
		if c := codeLine(l); c != "" {
			out = append(out, c)
		}
	}
	return out
}

// codeLine is one line of Go without its // comment and with its spacing
// collapsed, so gofmt's tabs and alignment and a doc's spaces compare equal;
// a comment-only line reads as "".
func codeLine(l string) string {
	var quote byte
	for i := 0; i < len(l); i++ {
		switch c := l[i]; {
		case quote == 0 && strings.HasPrefix(l[i:], "//"):
			l = l[:i]
		case quote == 0 && (c == '"' || c == '\'' || c == '`'):
			quote = c
		case quote != 0 && quote != '`' && c == '\\':
			i++ // the escaped byte cannot end the literal
		case c == quote:
			quote = 0
		}
	}
	return strings.Join(strings.Fields(l), " ")
}

func (s *docScan) checkSection(file string, line int, num string) {
	s.checked["sections"]++
	if !s.sections[num] {
		s.report(file, line, "§"+num, "names no DESIGN.md heading")
	}
}

// checkSpan checks one code span that is a whole reference: a file path, a
// test name, a metric name or a Go identifier. Anything else — a command, a
// value, a name whose head is neither a package nor a type — is left alone.
func (s *docScan) checkSpan(doc string, line int, tok string) {
	switch {
	case testRE.MatchString(tok):
		s.checked["tests"]++
		if !slices.ContainsFunc(s.tests, func(name string) bool { ok, _ := path.Match(tok, name); return ok }) {
			s.report(doc, line, tok, "is declared by no _test.go file")
		}
	case pathRE.MatchString(tok) || dirRE.MatchString(tok):
		s.checked["paths"]++
		if msg := s.checkPath(tok); msg != "" {
			s.report(doc, line, tok, msg)
		}
	case fileRE.MatchString(tok): // data and build outputs are not checked
	case promRE.MatchString(tok):
		s.checked["metrics"]++
		if !s.isMetric(callRE.ReplaceAllString(tok, "")) {
			s.report(doc, line, tok, "is not a series internal/svc/metrics.go writes")
		}
	default:
		tok = strings.TrimLeft(callRE.ReplaceAllString(tok, ""), "*[]")
		parts := strings.Split(tok, ".")
		goHead := goRefRE.MatchString(tok) && (len(s.pkgs[parts[0]]) > 0 || len(s.stdPaths[parts[0]]) > 0 || len(s.types[parts[0]]) > 0)
		if goHead {
			s.checked["go"]++
			if s.resolves(parts) {
				return
			}
		}
		if metricRE.MatchString(tok) && s.spaces[parts[0]] {
			s.checked["metrics"]++
			if !s.isMetric(tok) {
				s.report(doc, line, tok, "is neither a Go identifier nor a metric in BENCHMARK.json")
			}
		} else if goHead {
			s.report(doc, line, tok, "does not resolve to a Go declaration")
		}
	}
}

// checkPath resolves a path, a base name or a partial path (a suffix of a
// repository path), and its line range; it returns what is wrong, if
// anything. A directory may be written with a trailing slash.
func (s *docScan) checkPath(tok string) string {
	p, last := strings.TrimSuffix(tok, "/"), 0
	if m := pathRE.FindStringSubmatch(tok); m != nil {
		p = m[1]
		for _, n := range m[2:] {
			if n != "" {
				last, _ = strconv.Atoi(n)
			}
		}
	}
	msg := "names no file in the repository"
	for _, c := range s.paths {
		if c != p && !strings.HasSuffix(c, "/"+p) {
			continue
		}
		b, ok := s.src[c]
		if !ok && last > 0 {
			var err error
			if b, err = fs.ReadFile(s.repo, c); err != nil {
				continue // a directory has no lines
			}
		}
		if n := bytes.Count(b, []byte("\n")); last <= n || last == n+1 && !bytes.HasSuffix(b, []byte("\n")) {
			return ""
		}
		msg = "cites a line past the end of the file"
	}
	return msg
}

// lineAt is the 1-based line of byte offset i.
func lineAt(b []byte, i int) int { return 1 + bytes.Count(b[:i], []byte("\n")) }

// docTree is a small clean repository: every rule has something to check
// in it and nothing to report.
func docTree() fstest.MapFS {
	files := map[string]string{
		"go.mod": "module x\n\ngo 1.22\n",
		"README.md": "# x\n\nSee [the design](DESIGN.md) and DESIGN.md §1: `p.New` returns a\n" +
			"`Box`; `Holder.Box.Size`, `p/p.go:3`, `TestBox`, `svc.place_us` and\n`risasvc_up` all resolve.\n",
		"DESIGN.md":                      "# D\n\n## 1. One\n\nSee §1.\n",
		"EXPERIMENTS.md":                 "# E\n\n`ExampleNew` builds one:\n\n```go\nb := New() // a box\n// …\nb.Size++\n```\n",
		"PAPERS.md":                      "# P\n",
		"bench/README.md":                "# B\n",
		".claude/skills/verify/SKILL.md": "# S\n",
		"BENCHMARK.json":                 `{"end_to_end": [{"name": "place_per_s"}], "per_layer": [{"name": "svc.place_us"}]}`,
		"internal/svc/metrics.go":        "// Package svc serves.\npackage svc\n\nfunc gauge(name string) {}\n\nfunc write() { gauge(\"up\") }\n",
		"p/p.go": "// Package p holds boxes.\npackage p\n\n// Box is a box (DESIGN.md §1).\ntype Box struct{ Size int }\n\n" +
			"// Holder holds one.\ntype Holder struct{ Box *Box }\n\n// New returns a box.\nfunc New() *Box { return &Box{} }\n",
		"p/p_test.go": "package p\n\nimport \"testing\"\n\nfunc TestBox(t *testing.T) {}\n\n" +
			"func ExampleNew() {\n\tb := New()\n\tb.Size++\n\t// Output:\n}\n",
	}
	tree := fstest.MapFS{}
	for name, data := range files {
		tree[name] = &fstest.MapFile{Data: []byte(data)}
	}
	return tree
}

// TestDocsRules plants one defect per rule in a clean tree: each must give
// exactly one finding, and the clean tree none.
func TestDocsRules(t *testing.T) {
	for _, c := range []struct {
		name, file, old, new string // old "" appends new to file
		want                 string // in the finding
	}{
		{"clean tree", "README.md", "", "", ""},
		{"broken link", "README.md", "", "[gone](gone.md)", "README.md:6: `gone.md` is a link to nothing"},
		{"missing file", "README.md", "", "`p/q.go`", "`p/q.go` names no file"},
		{"missing directory", "README.md", "", "`internal/gone/`", "`internal/gone/` names no file"},
		{"line past the end", "README.md", "`p/p.go:3`", "`p/p.go:99`", "`p/p.go:99` cites a line past"},
		{"unknown identifier", "README.md", "", "`p.Old`", "`p.Old` does not resolve"},
		{"unknown field", "README.md", "", "`Box.Weight`", "`Box.Weight` does not resolve"},
		{"unknown field path", "README.md", "", "`Holder.Box.Weight`", "`Holder.Box.Weight` does not resolve"},
		{"unknown section", "README.md", "§1", "§99", "README.md:3: `§99` names no DESIGN.md heading"},
		{"unknown section in Go", "p/p.go", "§1", "§99", "p/p.go:4: `§99`"},
		{"unknown metric", "README.md", "", "`svc.place_ms`", "`svc.place_ms` is neither"},
		{"unknown series", "README.md", "", "`risasvc_down`", "`risasvc_down` is not a series"},
		{"missing test", "README.md", "", "`TestCrate`", "`TestCrate` is declared by no _test.go file"},
		{"undocumented func", "p/p.go", "", "\nfunc Old() {}\n", "p/p.go:13: `Old` is an exported func with no doc comment"},
		{"no package comment", "p/p.go", "// Package p holds boxes.\n", "", "p: `p` has no package comment"},
		{"walkthrough names no Example", "EXPERIMENTS.md", "`ExampleNew` builds", "It builds", "EXPERIMENTS.md:5: `Example` is named by no code span"},
		{"walkthrough names a missing Example", "EXPERIMENTS.md", "`ExampleNew`", "`ExampleOld`", "`ExampleOld` is declared by no _test.go file"},
		{"walkthrough line not in its Example", "EXPERIMENTS.md", "b.Size++", "b.Size--", "EXPERIMENTS.md:8: `b.Size--` is not in the body of ExampleNew"},
	} {
		t.Run(c.name, func(t *testing.T) {
			tree := docTree()
			f := tree[c.file]
			if c.old == "" {
				f.Data = append(f.Data, c.new...)
			} else {
				f.Data = bytes.Replace(f.Data, []byte(c.old), []byte(c.new), 1)
			}
			s, err := scanDocs(tree, fstest.MapFS{})
			if err != nil {
				t.Fatal(err)
			}
			if c.want == "" && len(s.found) == 0 {
				return
			}
			if len(s.found) != 1 || !strings.Contains(s.found[0].String(), c.want) {
				t.Errorf("findings %v, want exactly one containing %q", s.found, c.want)
			}
		})
	}
}
