package hidb_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// liveWithoutProductCaller lists the exported functions and methods under
// internal/ that no non-test file names, each with the reason it stays.
// Keys are "package.Func" or "package.Recv.Method".
var liveWithoutProductCaller = map[string]string{
	"core.PartialError.Unwrap":         "errors.Is/As walk the chain through it",
	"diskstore.CorruptionError.Unwrap": "errors.Is/As walk the chain through it",
	"httpclient.TransportError.Unwrap": "errors.Is/As walk the chain through it",
	"journal.CorruptionError.Unwrap":   "errors.Is/As walk the chain through it",
	"hiddendb.sleeperHeap.Less":        "container/heap calls it",
	"hiddendb.sleeperHeap.Swap":        "container/heap calls it",
	"chaos.faultError.Temporary":       "part of the net.Error its injected timeouts implement",
	"datagen.Random":                   "fixture the tests of several packages share",
	"datagen.Tiered":                   "fixture the tests of several packages share",
	"experiments.DefaultConfig":        "the root make bench harness builds its configuration from it",
	"chaos.Transport.Script":           "the chaos suite scripts its faults through it",
	"chaos.Transport.Faults":           "the chaos suite reads back the injected faults through it",
	"chaos.Transport.Counts":           "the chaos suite reads the per-kind fault counts through it",
}

// TestInternalExportsHaveCallers fails for every exported function or
// method declared under internal/ whose name appears in no non-test Go
// file of the repository (root, cmd/, examples/, internal/, bench/) apart
// from its own declaration. Such a function is surface only tests keep
// alive: delete it, or move it into a _test.go helper if a test of product
// behaviour needs it. Matching is by identifier, so a same-named call
// anywhere keeps a declaration alive; the scan errs towards passing.
func TestInternalExportsHaveCallers(t *testing.T) {
	type decl struct{ path, key, name string }
	fset := token.NewFileSet()
	uses := map[string]int{}
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// declared holds identifiers that name something rather than use
		// it: exported function names under internal/, struct fields and
		// interface methods, and the field keys of composite literals.
		declared := map[*ast.Ident]bool{}
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				key := f.Name.Name + "." + fn.Name.Name
				if fn.Recv != nil {
					key = f.Name.Name + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				declared[fn.Name] = true
				decls = append(decls, decl{path, key, fn.Name.Name})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Field:
				for _, id := range x.Names {
					declared[id] = true
				}
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					declared[id] = true
				}
			case *ast.Ident:
				if !declared[x] {
					uses[x.Name]++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/")
	}
	var dead []string
	for _, d := range decls {
		if uses[d.name] == 0 && liveWithoutProductCaller[d.key] == "" {
			dead = append(dead, d.path+": "+d.key)
		}
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("exported but called by no non-test file: %s", d)
	}
	for key := range liveWithoutProductCaller {
		if !slices.ContainsFunc(decls, func(d decl) bool { return d.key == key }) {
			t.Errorf("allowlist names %s, which is no longer declared", key)
		}
	}
}

// recvName returns the receiver's type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
