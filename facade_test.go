package plotters_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeExportsHaveCallers keeps the façade to what something calls:
// every exported function and variable of plotters.go and live.go must be
// named as plotters.<Name> by a file under cmd/ or bench/, or by a root
// test (an Example counts). Types and constants are exempt — they name
// signature types and Record field values.
func TestFacadeExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	var exports []string
	for _, path := range []string{"plotters.go", "live.go"} {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					exports = append(exports, d.Name.Name)
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						if name.IsExported() {
							exports = append(exports, name.Name)
						}
					}
				}
			}
		}
	}

	called := make(map[string]bool)
	use := func(path string) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkg := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "plotters" {
				pkg = "plotters"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		if pkg == "" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
					called[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	for _, dir := range []string{"cmd", "bench"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				use(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range tests {
		use(path)
	}

	var uncalled []string
	for _, name := range exports {
		if !called[name] {
			uncalled = append(uncalled, name)
		}
	}
	sort.Strings(uncalled)
	if len(uncalled) > 0 {
		t.Errorf("%d façade exports have no caller in cmd/, bench/ or a root test: %s",
			len(uncalled), strings.Join(uncalled, ", "))
	}
}
