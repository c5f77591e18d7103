package hslb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose code references must stay current.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	// fence matches a fenced code block; its content is shell, not prose.
	fence = regexp.MustCompile("(?ms)^```.*?^```")
	// codeSpan matches one inline code span, which may wrap a line.
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// docRef matches pkg.Name or pkg.Type.Field inside a span, with Name
	// exported-looking so that file names such as neos.go stay out:
	// `neos.RequestKey`, `core.RunPipeline(ctx, spec)`, `neos.Config.Peers`.
	docRef = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
)

// TestDocReferencesResolve: every backticked pkg.Name or pkg.Type.Field in
// the top-level documents whose pkg is a package of this module names an
// exported declaration of that package — a function, type, variable or
// constant, or a type's field or method. A rename or deletion that leaves
// a document pointing at nothing fails here.
func TestDocReferencesResolve(t *testing.T) {
	decls := moduleDecls(t)
	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fence.ReplaceAllStringFunc(string(data), func(block string) string {
			// Keep the line count so reported lines stay right.
			return strings.Repeat("\n", strings.Count(block, "\n"))
		})
		for _, loc := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
			for _, m := range docRef.FindAllStringSubmatch(text[loc[2]:loc[3]], -1) {
				names, ok := decls[m[1]]
				if !ok {
					continue // not a package of this module
				}
				ref := m[2]
				if m[3] != "" {
					ref += "." + m[3]
				}
				if !names[ref] {
					line := 1 + strings.Count(text[:loc[0]], "\n")
					t.Errorf("%s:%d: `%s.%s` names no exported declaration of package %s", doc, line, m[1], ref, m[1])
				}
			}
		}
	}
}

// moduleDecls parses every non-test Go file of the module and returns, per
// package name, its exported declarations: top-level names and, for types,
// "Type.Member" for exported fields and methods. Packages named main are
// left out: nothing can import them.
func moduleDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	parseModule(t, func(path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") || f.Name.Name == "main" {
			return
		}
		names := decls[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			decls[f.Name.Name] = names
		}
		add := func(name string) {
			for _, part := range strings.Split(name, ".") {
				if !ast.IsExported(part) {
					return
				}
			}
			names[name] = true
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name.Name)
				} else {
					add(receiverName(d.Recv.List[0].Type) + "." + d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n.Name)
						}
					case *ast.TypeSpec:
						add(s.Name.Name)
						for _, member := range typeMembers(s.Type) {
							add(s.Name.Name + "." + member)
						}
					}
				}
			}
		}
	})
	return decls
}

// parseModule parses every Go file of the module, tests included, and
// hands each to fn with its slash-separated path.
func parseModule(t *testing.T, fn func(path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// receiverName returns the type name of a method receiver: T, *T, T[P] and
// *T[P] all give T.
func receiverName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// typeMembers returns the field names of a struct type (an embedded field
// by its type's name) and the method names of an interface type.
func typeMembers(expr ast.Expr) []string {
	var fields *ast.FieldList
	switch e := expr.(type) {
	case *ast.StructType:
		fields = e.Fields
	case *ast.InterfaceType:
		fields = e.Methods
	default:
		return nil
	}
	var out []string
	for _, f := range fields.List {
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
		if len(f.Names) == 0 {
			if sel, ok := f.Type.(*ast.SelectorExpr); ok {
				out = append(out, sel.Sel.Name)
			} else {
				out = append(out, receiverName(f.Type))
			}
		}
	}
	return out
}

// optionType matches the names of the configuration types
// TestEveryOptionFieldIsSet covers: Options, Config or Policy, or a name
// ending in one of them.
var optionType = regexp.MustCompile(`(Options|Config|Policy)$`)

// TestEveryOptionFieldIsSet: every exported field of an exported option
// struct in internal/ (see optionSuffixes) has a setter somewhere in the
// module, tests included: a key in a composite literal of that type, an
// assignment x.Field = … outside the file that declares the type (that file
// fills the defaults), or &x.Field handed to a flag. A field nothing sets is
// a configuration nobody runs; make it a constant instead.
func TestEveryOptionFieldIsSet(t *testing.T) {
	type file struct {
		path, dir string
		ast       *ast.File
	}
	var files []file
	parseModule(t, func(path string, f *ast.File) {
		files = append(files, file{path, filepath.ToSlash(filepath.Dir(path)), f})
	})

	// The option types, keyed by "dir.Type", with the file declaring each
	// and its exported fields.
	type option struct {
		name, declFile string
		fields         []string
	}
	types := map[string]*option{}
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") || strings.HasSuffix(f.path, "_test.go") {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			s, ok := n.(*ast.TypeSpec)
			if !ok || !ast.IsExported(s.Name.Name) {
				return true
			}
			st, ok := s.Type.(*ast.StructType)
			if !ok || !optionType.MatchString(s.Name.Name) {
				return true
			}
			ot := &option{name: f.ast.Name.Name + "." + s.Name.Name, declFile: f.path}
			for _, m := range typeMembers(st) {
				if ast.IsExported(m) {
					ot.fields = append(ot.fields, m)
				}
			}
			types[f.dir+"."+s.Name.Name] = ot
			return true
		})
	}

	set := map[string]bool{}          // "dir.Type.Field" keyed in a literal
	assigned := map[string][]string{} // field name -> files assigning x.Field
	for _, f := range files {
		imports := map[string]string{} // local name -> module directory
		for _, imp := range f.ast.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			dir, ok := strings.CutPrefix(p, "hslb/")
			if !ok {
				continue
			}
			name := filepath.Base(dir)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = dir
		}
		// typeKey resolves T, *T, pkg.T or *pkg.T to its "dir.Type" key.
		var typeKey func(e ast.Expr) string
		typeKey = func(e ast.Expr) string {
			switch e := e.(type) {
			case *ast.Ident:
				return f.dir + "." + e.Name
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok {
					return imports[x.Name] + "." + e.Sel.Name
				}
			case *ast.StarExpr:
				return typeKey(e.X)
			}
			return ""
		}
		// visit records the keys of a literal of type typ, descending into
		// the elided-type elements of slice, array and map literals.
		var visit func(cl *ast.CompositeLit, typ ast.Expr)
		visit = func(cl *ast.CompositeLit, typ ast.Expr) {
			var elem ast.Expr
			switch tt := typ.(type) {
			case *ast.ArrayType:
				elem = tt.Elt
			case *ast.MapType:
				elem = tt.Value
			}
			key := typeKey(typ)
			for _, el := range cl.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok && elem == nil {
						set[key+"."+id.Name] = true
					}
					el = kv.Value
				} else if elem == nil {
					set[key+".*"] = true // a positional literal sets every field
				}
				if inner, ok := el.(*ast.CompositeLit); ok && inner.Type == nil && elem != nil {
					visit(inner, elem)
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if n.Type != nil {
					visit(n, n.Type)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						assigned[sel.Sel.Name] = append(assigned[sel.Sel.Name], f.path)
					}
				}
			case *ast.UnaryExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					assigned[sel.Sel.Name] = append(assigned[sel.Sel.Name], f.path)
				}
			}
			return true
		})
	}

	// An assignment in a file that declares an option type with a field of
	// that name fills a default; the name alone cannot tell which type's.
	fills := map[string]bool{} // "file.Field"
	for _, ot := range types {
		for _, field := range ot.fields {
			fills[ot.declFile+"."+field] = true
		}
	}
	for key, ot := range types {
		for _, field := range ot.fields {
			if set[key+"."+field] || set[key+".*"] {
				continue
			}
			setter := false
			for _, path := range assigned[field] {
				if !fills[path+"."+field] {
					setter = true
				}
			}
			if !setter {
				t.Errorf("%s.%s (%s) has no setter in the module: make it a constant", ot.name, field, ot.declFile)
			}
		}
	}
}

// TestMinlpImportsNoNLP: the search's one subproblem mechanism is the LP
// with outer-approximation cuts (tangent pool at the root, Kelley rounds for
// fixed-integer subproblems), so no non-test file of internal/minlp may
// import the NLP solver.
func TestMinlpImportsNoNLP(t *testing.T) {
	parseModule(t, func(path string, f *ast.File) {
		if !strings.HasPrefix(path, "internal/minlp/") || strings.HasSuffix(path, "_test.go") {
			return
		}
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == "hslb/internal/nlp" {
				t.Errorf("%s imports hslb/internal/nlp", path)
			}
		}
	})
}

// neosHTTPFiles are the internal/neos files that may import net/http: the
// one HTTP adapter over the solve core, and the client.
var neosHTTPFiles = map[string]bool{
	"internal/neos/http.go":   true,
	"internal/neos/client.go": true,
}

// TestNeosCoreImportsNoHTTP: the solve core (the ladder, the lease
// protocol, the workers and the background loops) is transport-free, so
// only the adapter and client files of internal/neos may import net/http.
func TestNeosCoreImportsNoHTTP(t *testing.T) {
	parseModule(t, func(path string, f *ast.File) {
		if !strings.HasPrefix(path, "internal/neos/") || strings.HasSuffix(path, "_test.go") || neosHTTPFiles[path] {
			return
		}
		for _, imp := range f.Imports {
			if strings.HasPrefix(strings.Trim(imp.Path.Value, `"`), "net/http") {
				t.Errorf("%s imports %s: HTTP belongs in the adapter (http.go) or the client (client.go)", path, imp.Path.Value)
			}
		}
	})
}

// clockCalls are the time and context calls that read the wall clock: in
// the serving stack only internal/clock makes them.
var clockCalls = map[string]map[string]bool{
	"time": {"Now": true, "Since": true, "Until": true, "After": true, "AfterFunc": true,
		"NewTimer": true, "NewTicker": true, "Tick": true, "Sleep": true},
	"context": {"WithTimeout": true, "WithDeadline": true},
}

// TestServingStackReadsOneClock: every timing decision of the serving stack
// reads one injectable clock.Clock, so a test can drive budgets, cooldowns,
// leases and drains on a clock.Fake. No non-test file of these packages may
// read the wall clock itself.
func TestServingStackReadsOneClock(t *testing.T) {
	serving := regexp.MustCompile(`^internal/(neos|router|overload|jobstore|resultstore|backoff)/`)
	parseModule(t, func(path string, f *ast.File) {
		if !serving.MatchString(path) || strings.HasSuffix(path, "_test.go") {
			return
		}
		local := map[string]string{} // local import name -> "time" or "context"
		for _, imp := range f.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); clockCalls[p] != nil {
				local[p] = p
				if imp.Name != nil {
					local[imp.Name.Name] = p
					delete(local, p)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && clockCalls[local[x.Name]][sel.Sel.Name] {
				t.Errorf("%s calls %s.%s: read the time through clock.Clock", path, local[x.Name], sel.Sel.Name)
			}
			return true
		})
	})
}

// TestOneDifferentiationMechanism: the search takes every cut and
// violation from compiled expr.Tape sweeps, so no non-test file outside
// internal/expr may call the compile-per-call expr.Gradient or
// expr.LinearizeAt. benchmark/ is exempt: its per-layer probes time both.
func TestOneDifferentiationMechanism(t *testing.T) {
	parseModule(t, func(path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "internal/expr/") || strings.HasPrefix(path, "benchmark/") {
			return
		}
		local := ""
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == "hslb/internal/expr" {
				local = "expr"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local && (sel.Sel.Name == "Gradient" || sel.Sel.Name == "LinearizeAt") {
				t.Errorf("%s references expr.%s: differentiate through a compiled expr.Tape", path, sel.Sel.Name)
			}
			return true
		})
	})
}
