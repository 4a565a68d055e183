package plotters_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"slices"
	"strings"
	"testing"
)

// testFunc is one top-level func declared in a _test.go file of the
// root module.
type testFunc struct {
	dir, name string // dir is the package directory, slash-separated: "." or "internal/flow"
	pos       token.Position
}

// testFuncs lists every top-level func in the root module's _test.go
// files. Nested modules (bench/) are skipped: go test ./... from the
// root does not reach them.
func testFuncs(t *testing.T) []testFunc {
	t.Helper()
	fset := token.NewFileSet()
	var funcs []testFunc
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "." {
				return nil
			}
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs = append(funcs, testFunc{filepath.ToSlash(filepath.Dir(p)), fn.Name.Name, fset.Position(decl.Pos())})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

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

	targets := 0
	for _, fn := range testFuncs(t) {
		if !strings.HasPrefix(fn.name, "Fuzz") {
			continue
		}
		targets++
		dir := "./" + fn.dir
		if !regexp.MustCompile(`\b`+fn.name+`\b`).MatchString(job) || !strings.Contains(job, dir+" ") {
			t.Errorf("%s: the fuzz job of ci.yml does not run %s in %s", fn.pos, fn.name, dir)
		}
	}
	if targets == 0 {
		t.Fatal("found no fuzz targets")
	}
}

// TestCIRunsOnlyTestsThatExist keeps ci.yml's hand-written selections
// honest: go test exits 0 with "no tests to run" when a -run or -bench
// pattern matches nothing, so a renamed golden would leave its
// regenerate-and-diff step checking nothing. Every alternative of a
// literal -run or -bench pattern in a go test command must match a
// function of a package that command tests: a Test, Fuzz or Example
// for -run, a Benchmark for -bench.
func TestCIRunsOnlyTestsThatExist(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	funcs := testFuncs(t)
	shellVar := regexp.MustCompile(`\$[A-Za-z_{]`)
	checked := 0
	for n, line := range strings.Split(string(raw), "\n") {
		i := strings.Index(line, "go test ")
		if i < 0 {
			continue
		}
		var pkgs, flags, patterns []string
		words := shellWords(line[i+len("go test "):])
		for j := 0; j < len(words); j++ {
			w := words[j]
			if strings.HasPrefix(w, ".") {
				pkgs = append(pkgs, w)
				continue
			}
			for _, flag := range []string{"-run", "-bench"} {
				switch {
				case w == flag && j+1 < len(words):
					j++
					flags, patterns = append(flags, flag), append(patterns, words[j])
				case strings.HasPrefix(w, flag+"="):
					flags, patterns = append(flags, flag), append(patterns, strings.TrimPrefix(w, flag+"="))
				}
			}
		}
		if len(pkgs) == 0 {
			pkgs = []string{"."}
		}
		for k, pattern := range patterns {
			if pattern == "^$" || shellVar.MatchString(pattern) {
				continue // runs nothing on purpose, or is filled in by the shell
			}
			re, err := syntax.Parse(topLevel(pattern), syntax.Perl)
			if err != nil {
				t.Errorf("ci.yml:%d: %s %q: %v", n+1, flags[k], pattern, err)
				continue
			}
			for _, alt := range alternatives(re) {
				checked++
				if !matchesFunc(funcs, pkgs, flags[k] == "-bench", regexp.MustCompile(alt.String())) {
					t.Errorf("ci.yml:%d: %s %q: alternative %s matches no function in %s", n+1, flags[k], pattern, alt, strings.Join(pkgs, " "))
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run or -bench patterns in ci.yml")
	}
}

// matchesFunc reports whether re matches a Benchmark (bench) or a
// Test, Fuzz or Example (!bench) declared in a package pkgs names.
func matchesFunc(funcs []testFunc, pkgs []string, bench bool, re *regexp.Regexp) bool {
	kinds := []string{"Test", "Fuzz", "Example"}
	if bench {
		kinds = []string{"Benchmark"}
	}
	for _, fn := range funcs {
		if !re.MatchString(fn.name) || !slices.ContainsFunc(kinds, func(k string) bool { return strings.HasPrefix(fn.name, k) }) {
			continue
		}
		for _, pkg := range pkgs {
			rel := strings.TrimPrefix(pkg, "./")
			base, all := strings.CutSuffix(rel, "...")
			base = strings.TrimSuffix(base, "/")
			if fn.dir == rel || all && (base == "" || fn.dir == base || strings.HasPrefix(fn.dir, base+"/")) {
				return true
			}
		}
	}
	return false
}

// shellWords splits a shell command line into its words, unquoted, up
// to the first unquoted |, ;, & or >.
func shellWords(s string) []string {
	var words []string
	var w strings.Builder
	open := false
	var quote byte
scan:
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				w.WriteByte(c)
			}
		case c == '\'' || c == '"':
			quote, open = c, true
		case c == ' ' || c == '\t':
			if open {
				words, open = append(words, w.String()), false
				w.Reset()
			}
		case strings.IndexByte("|;&>", c) >= 0:
			break scan
		default:
			w.WriteByte(c)
			open = true
		}
	}
	if open {
		words = append(words, w.String())
	}
	return words
}

// topLevel cuts a -run or -bench pattern at its first slash outside
// brackets and parentheses: the part that selects top-level functions,
// without the subtest levels go test matches below them.
func topLevel(pattern string) string {
	depth := 0
	for i, c := range pattern {
		switch c {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '/':
			if depth == 0 {
				return pattern[:i]
			}
		}
	}
	return pattern
}

// alternatives expands re into the patterns its alternations choose
// between: a|b(c|d) gives a, bc and bd.
func alternatives(re *syntax.Regexp) []*syntax.Regexp {
	switch re.Op {
	case syntax.OpAlternate:
		var out []*syntax.Regexp
		for _, sub := range re.Sub {
			out = append(out, alternatives(sub)...)
		}
		return out
	case syntax.OpCapture:
		return alternatives(re.Sub[0])
	case syntax.OpConcat:
		out := alternatives(re.Sub[0])
		for _, sub := range re.Sub[1:] {
			var next []*syntax.Regexp
			for _, head := range out {
				for _, tail := range alternatives(sub) {
					next = append(next, &syntax.Regexp{Op: syntax.OpConcat, Sub: []*syntax.Regexp{head, tail}})
				}
			}
			out = next
		}
		return out
	}
	return []*syntax.Regexp{re}
}
