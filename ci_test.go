package plotters_test

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

// TestCIFuzzesEveryTarget keeps the fuzz job complete: it names its
// targets by hand, so every func Fuzz* in the repository's _test.go
// files must appear, as a whole word, in that job of
// .github/workflows/ci.yml, and so must its package directory.
func TestCIFuzzesEveryTarget(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	ci := string(raw)
	start := strings.Index(ci, "\n  fuzz:\n")
	if start < 0 {
		t.Fatal("ci.yml has no fuzz job")
	}
	job := ci[start+1:]
	if end := regexp.MustCompile(`\n  [a-z-]+:\n`).FindStringIndex(job); end != nil {
		job = job[:end[0]]
	}

	fset := token.NewFileSet()
	targets := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := "./" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			name := ""
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				name = fn.Name.Name
			}
			if !strings.HasPrefix(name, "Fuzz") {
				continue
			}
			targets++
			if !regexp.MustCompile(`\b`+name+`\b`).MatchString(job) || !strings.Contains(job, dir+" ") {
				t.Errorf("%s: the fuzz job of ci.yml does not run %s in %s", fset.Position(decl.Pos()), name, dir)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if targets == 0 {
		t.Fatal("found no fuzz targets")
	}
}
