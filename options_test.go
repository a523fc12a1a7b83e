package toltiers_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// optionStructs are the Config/Options structs no wire format reads:
// their fields carry no json tag, so a field nothing sets is dead
// weight rather than a knob some client may send.
var optionStructs = []struct{ dir, name string }{
	{"internal/server", "Config"},
	{"internal/server", "WorkerOptions"},
	{"internal/dispatch", "Options"},
	{"internal/coalesce", "Options"},
	{"internal/fleet", "Options"},
	{"internal/trace", "Options"},
	{"internal/rulegen", "Config"},
	{"internal/workload", "Config"},
}

// testSeams are the option fields only tests set, each with a test
// that sets it.
var testSeams = map[string]string{
	"internal/dispatch.Options.DisableHedging":  "TestObserverSeesBackendFailuresNotCancellations (internal/dispatch)",
	"internal/dispatch.Options.TelemetryShards": "BenchmarkDispatch (bench_test.go)",
	"internal/fleet.Options.Now":                "TestLeaseExpiryRemovesWorker (internal/fleet)",
	"internal/server.Config.Reprofile":          "TestEndToEndDriftSelfHealing (internal/server)",
	"internal/rulegen.Config.SampleFraction":    "TestKernelEquivalenceRandomMatrices (internal/rulegen)",
}

// TestEveryOptionIsSet fails on an exported field of an option struct
// that no non-test file outside the struct's own package assigns,
// either as a composite-literal key of the struct's type or as the
// selector on the left of an assignment or under &. benchmark/ and cmd/
// count as callers.
func TestEveryOptionIsSet(t *testing.T) {
	const module = "github.com/toltiers/toltiers"
	type typeKey struct{ dir, name string }
	type file struct {
		dir     string
		ast     *ast.File
		imports map[string]string // local name -> module-relative dir
	}
	var files []file
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		fl := file{dir: filepath.ToSlash(filepath.Dir(path)), ast: f, imports: map[string]string{}}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if !strings.HasPrefix(p, module+"/") {
				continue
			}
			rel := strings.TrimPrefix(p, module+"/")
			name := rel[strings.LastIndex(rel, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			fl.imports[name] = rel
		}
		files = append(files, fl)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// typeOf resolves a composite literal's type expression.
	typeOf := func(f file, e ast.Expr) (typeKey, bool) {
		switch e := e.(type) {
		case *ast.Ident:
			return typeKey{f.dir, e.Name}, true
		case *ast.SelectorExpr:
			if x, ok := e.X.(*ast.Ident); ok {
				if dir, ok := f.imports[x.Name]; ok {
					return typeKey{dir, e.Sel.Name}, true
				}
			}
		}
		return typeKey{}, false
	}
	litKeys := map[string]bool{}       // dir.Type.Field set by a literal outside dir
	selectors := map[string][]string{} // field name -> dirs assigning x.Field
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				k, ok := typeOf(f, n.Type)
				if !ok {
					return true
				}
				if k.dir == f.dir {
					return true
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							litKeys[k.dir+"."+k.name+"."+id.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						selectors[sel.Sel.Name] = append(selectors[sel.Sel.Name], f.dir)
					}
				}
			case *ast.UnaryExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					selectors[sel.Sel.Name] = append(selectors[sel.Sel.Name], f.dir)
				}
			}
			return true
		})
	}

	for _, s := range optionStructs {
		var st *ast.StructType
		for _, f := range files {
			if f.dir != s.dir {
				continue
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == s.name {
					st, _ = ts.Type.(*ast.StructType)
				}
				return st == nil
			})
		}
		if st == nil {
			t.Errorf("%s.%s: struct not found", s.dir, s.name)
			continue
		}
		for _, field := range st.Fields.List {
			for _, id := range field.Names {
				if !id.IsExported() {
					continue
				}
				key := s.dir + "." + s.name + "." + id.Name
				set := litKeys[key]
				for _, dir := range selectors[id.Name] {
					set = set || dir != s.dir
				}
				switch seam, isSeam := testSeams[key]; {
				case set && isSeam:
					t.Errorf("%s is set outside its package; drop it from testSeams (%s)", key, seam)
				case !set && !isSeam:
					t.Errorf("%s: no non-test file outside %s sets it; delete the option", key, s.dir)
				}
			}
		}
	}
}
