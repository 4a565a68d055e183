package plotters_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"plotters/internal/metrics"
)

// TestMetricCatalogue keeps README's metric table and the code in step.
// Every name that non-test code registers — through a registry's
// Counter, Gauge, Stage or StartStage, or a stage timer's Child — must
// have a row of the same kind in the table under README's
// Observability heading, every row must be registered somewhere, and no
// two rows may share a Prometheus name. A part of a name built at run
// time is a <placeholder>: any text in angle brackets matches any other.
func TestMetricCatalogue(t *testing.T) {
	registered := registeredMetrics(t)
	if len(registered) == 0 {
		t.Fatal("found no metric registrations")
	}
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	table := readmeMetricTable(t, string(raw))
	if len(table) == 0 {
		t.Fatal("README's Observability section has no metric table")
	}

	byName := map[string]string{} // normalized name → kind
	byProm := map[string]string{}
	for _, row := range table {
		name := placeholderRE.ReplaceAllString(row.name, "<>")
		if _, dup := byName[name]; dup {
			t.Errorf("README lists %s twice", row.name)
		}
		byName[name] = row.kind
		var text bytes.Buffer
		if err := (metrics.Snapshot{Gauges: map[string]int64{row.name: 0}}).WriteText(&text); err != nil {
			t.Fatal(err)
		}
		prom := strings.Fields(text.String())[0]
		if other, ok := byProm[prom]; ok {
			t.Errorf("README's %s and %s are both exposed as %s", other, row.name, prom)
		}
		byProm[prom] = row.name
	}
	seen := map[string]bool{}
	for _, r := range registered {
		seen[r.name] = true
		switch kind, ok := byName[r.name]; {
		case !ok:
			t.Errorf("%s: %s %s is missing from README's metric table", r.pos, r.kind, r.name)
		case kind != r.kind:
			t.Errorf("%s: %s is a %s, README's metric table says %s", r.pos, r.name, r.kind, kind)
		}
	}
	for _, row := range table {
		if !seen[placeholderRE.ReplaceAllString(row.name, "<>")] {
			t.Errorf("README's metric table lists %s, which no code registers", row.name)
		}
	}
}

var placeholderRE = regexp.MustCompile(`<[^>]*>`)

type metricRow struct{ name, kind string }

// readmeMetricTable returns the rows "| `name` | kind | meaning |" of
// README's Observability section.
func readmeMetricTable(t *testing.T, readme string) []metricRow {
	start := strings.Index(readme, "\n## Observability\n")
	if start < 0 {
		t.Fatal("README has no Observability section")
	}
	section := readme[start+1:]
	if end := strings.Index(section[1:], "\n## "); end >= 0 {
		section = section[:end+1]
	}
	var rows []metricRow
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\| (\\w+) \\|").FindAllStringSubmatch(section, -1) {
		rows = append(rows, metricRow{name: m[1], kind: m[2]})
	}
	return rows
}

type registration struct {
	kind, name string
	pos        token.Position
	tmpl       template // set while the name still has a parameter hole
}

// A name template is text with holes for the enclosing function's
// parameters: param < 0 is literal text ("<>" for a part built at run
// time), param ≥ 0 the call's argument of that index.
type segment struct {
	text  string
	param int
}

type template []segment

var registrar = map[string]string{"Counter": "counter", "Gauge": "gauge", "Stage": "stage", "StartStage": "stage", "Child": "stage"}

// registeredMetrics collects the names non-test Go code outside bench/
// (its own module) and internal/metrics (which only passes names
// through) registers. A name built from a parameter of the enclosing
// function (engine.RunWindow's stage) is resolved at every call.
func registeredMetrics(t *testing.T) []registration {
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == "bench" || path == filepath.Join("internal", "metrics")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err == nil {
			files = append(files, f)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	var out []registration
	pending := map[string][]registration{} // function → registrations with a parameter hole
	eachCall(files, func(sc *scope, call *ast.CallExpr) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || registrar[sel.Sel.Name] == "" || len(call.Args) != 1 {
			return
		}
		r := registration{kind: registrar[sel.Sel.Name], pos: fset.Position(call.Pos())}
		names := []template{sc.resolve(call.Args[0])}
		if sel.Sel.Name == "Child" {
			if names = sc.stage(call, 0); names == nil {
				t.Errorf("%s: cannot tell which stage Child extends", r.pos)
			}
		}
		for _, name := range names {
			r.name = name.String()
			switch {
			case !name.literal():
				r.tmpl = name
				pending[sc.fn] = append(pending[sc.fn], r)
			case strings.Trim(r.name, "<>/") == "":
				t.Errorf("%s: cannot resolve the %s's name", r.pos, r.kind)
			default:
				out = append(out, r)
			}
		}
	})
	for fn, regs := range pending {
		eachCall(files, func(sc *scope, call *ast.CallExpr) {
			if calleeName(call) != fn {
				return
			}
			for _, r := range regs {
				var name template
				for _, s := range r.tmpl {
					if s.param < 0 {
						name = append(name, s)
					} else if s.param < len(call.Args) {
						name = append(name, sc.resolve(call.Args[s.param])...)
					}
				}
				if !name.literal() {
					t.Errorf("%s: %s passes a metric name through; resolve it here", fset.Position(call.Pos()), fn)
					continue
				}
				out = append(out, registration{kind: r.kind, name: name.String(), pos: fset.Position(call.Pos())})
			}
		})
	}
	return out
}

// scope is what name resolution knows about the enclosing function: its
// parameters and the right-hand sides assigned to each local name.
type scope struct {
	fn      string
	params  map[string]int
	assigns map[string][]ast.Expr
}

// eachCall visits every call in files with its enclosing function's scope.
func eachCall(files []*ast.File, visit func(*scope, *ast.CallExpr)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			sc := &scope{params: map[string]int{}, assigns: map[string][]ast.Expr{}}
			if fd, ok := decl.(*ast.FuncDecl); ok {
				sc.fn = fd.Name.Name
				i := 0
				for _, field := range fd.Type.Params.List {
					for _, n := range field.Names {
						sc.params[n.Name] = i
						i++
					}
					if len(field.Names) == 0 {
						i++
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
					for i, l := range as.Lhs {
						if id, ok := l.(*ast.Ident); ok {
							sc.assigns[id.Name] = append(sc.assigns[id.Name], as.Rhs[i])
						}
					}
				}
				return true
			})
			ast.Inspect(decl, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					visit(sc, call)
				}
				return true
			})
		}
	}
}

// resolve renders a name expression: string literals and their sums,
// the enclosing function's parameters as holes, anything else "<>".
func (sc *scope) resolve(e ast.Expr) template {
	switch e := e.(type) {
	case *ast.BasicLit:
		if s, err := strconv.Unquote(e.Value); err == nil {
			return template{{s, -1}}
		}
	case *ast.ParenExpr:
		return sc.resolve(e.X)
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			return append(sc.resolve(e.X), sc.resolve(e.Y)...)
		}
	case *ast.Ident:
		if i, ok := sc.params[e.Name]; ok {
			return template{{param: i}}
		}
	}
	return template{{"<>", -1}}
}

// stage returns the names of the stage timer e holds: a StartStage or
// Child call, or a local assigned one (followed a few assignments deep).
func (sc *scope) stage(e ast.Expr, depth int) []template {
	if depth > 4 {
		return nil
	}
	if id, ok := e.(*ast.Ident); ok {
		var out []template
		for _, rhs := range sc.assigns[id.Name] {
			out = append(out, sc.stage(rhs, depth+1)...)
		}
		return out
	}
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	switch {
	case !ok:
		return nil
	case sel.Sel.Name == "StartStage":
		return []template{sc.resolve(call.Args[0])}
	case sel.Sel.Name == "Child":
		var out []template
		for _, parent := range sc.stage(sel.X, depth+1) {
			out = append(out, append(append(parent, segment{"/", -1}), sc.resolve(call.Args[0])...))
		}
		return out
	}
	return nil
}

func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

func (tm template) literal() bool {
	for _, s := range tm {
		if s.param >= 0 {
			return false
		}
	}
	return true
}

func (tm template) String() string {
	var b strings.Builder
	for _, s := range tm {
		b.WriteString(s.text)
	}
	return b.String()
}
