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
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
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
