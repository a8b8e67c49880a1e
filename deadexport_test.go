package hidb_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// liveWithoutProductCaller lists the exported functions and methods under
// internal/ that no non-test file uses, each with the reason it stays.
// Keys are "package.Func" or "package.Recv.Method".
var liveWithoutProductCaller = map[string]string{
	"core.PartialError.Unwrap":         "errors.Is/As walk the chain through it",
	"diskstore.CorruptionError.Unwrap": "errors.Is/As walk the chain through it",
	"httpclient.TransportError.Unwrap": "errors.Is/As walk the chain through it",
	"journal.CorruptionError.Unwrap":   "errors.Is/As walk the chain through it",
	"datagen.Random":                   "fixture the tests of several packages share",
	"datagen.Tiered":                   "fixture the tests of several packages share",
	"datagen.Dataset.Validate":         "fixture check the tests of several packages share",
	"diskstore.Store.Verify":           "the integrity audit of a whole store file, which only tests run today",
	"experiments.DefaultConfig":        "the root make bench harness builds its configuration from it",
	"chaos.New":                        "the chaos suite builds its fault-injecting transport with it",
	"chaos.Transport.Seed":             "the chaos suite arms its seeded random faults through it",
	"chaos.Transport.Script":           "the chaos suite scripts its faults through it",
	"chaos.Transport.Faults":           "the chaos suite reads back the injected faults through it",
	"chaos.Transport.Counts":           "the chaos suite reads the per-kind fault counts through it",
}

// TestInternalExportsHaveCallers fails for every exported function or
// method declared under internal/ that no non-test Go file of the
// repository (root, cmd/, examples/, scripts/, internal/, bench/) uses.
// Such a function is surface only tests keep alive: delete it, or move it
// into a _test.go helper if a test of product behaviour needs it.
//
// The scan type-checks every package from source and matches objects,
// not names. A use of a generic instance counts for its origin. A method
// is also live when a type that has it, directly or by embedding,
// implements an interface (named or anonymous) one of whose used methods
// it is, or implements a standard-library interface that has it: the
// standard library calls such methods (sort, container/heap, net.Error).
func TestInternalExportsHaveCallers(t *testing.T) {
	sc := newScan(t)
	type decl struct {
		key string
		obj types.Object
		pos token.Pos
	}
	var decls []decl
	used := map[types.Object]bool{}
	// ifaces are the interfaces the code names, anonymous ones included;
	// named are the concrete types the repository declares.
	var ifaces []*types.Interface
	var named []types.Type
	seen := map[types.Type]bool{}
	var addType func(types.Type)
	addType = func(typ types.Type) {
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		if it, ok := typ.(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
		n, ok := typ.(*types.Named)
		if !ok || seen[n] || n.TypeParams().Len() > 0 && n.TypeArgs().Len() == 0 {
			return
		}
		seen[n] = true
		if _, ok := n.Underlying().(*types.Interface); ok {
			addType(n.Underlying())
		} else if _, ours := sc.dirs[n.Obj().Pkg().Path()]; ours {
			named = append(named, n)
		}
	}
	for _, p := range sc.pkgs {
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
		for _, tv := range p.info.Types {
			addType(tv.Type)
		}
		for _, name := range p.pkg.Scope().Names() {
			if tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addType(tn.Type())
			}
		}
		if !strings.HasPrefix(p.path, "hidb/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				key := p.pkg.Name() + "." + fn.Name.Name
				if fn.Recv != nil {
					key = p.pkg.Name() + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				decls = append(decls, decl{key, p.info.Defs[fn.Name], fn.Pos()})
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/")
	}

	// Interface satisfaction: a used interface method keeps alive the
	// method every implementing type would run in its place, and any
	// method of a standard-library interface is called from outside.
	std := sc.stdInterfaces()
	for _, typ := range named {
		ptr := types.NewPointer(typ)
		for _, it := range slices.Concat(ifaces, std) {
			if !types.Implements(ptr, it) {
				continue
			}
			stdlib := slices.Contains(std, it)
			for m := range it.Methods() {
				if !stdlib && !used[m] {
					continue
				}
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					used[origin(obj)] = true
				}
			}
		}
	}

	var dead []string
	for _, d := range decls {
		reason := liveWithoutProductCaller[d.key]
		switch {
		case !used[d.obj] && reason == "":
			dead = append(dead, sc.fset.Position(d.pos).String()+": "+d.key)
		case used[d.obj] && reason != "":
			t.Errorf("allowlist names %s, which a non-test file uses", d.key)
		}
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("exported but used by no non-test file: %s", d)
	}
	for key := range liveWithoutProductCaller {
		if !slices.ContainsFunc(decls, func(d decl) bool { return d.key == key }) {
			t.Errorf("allowlist names %s, which is no longer declared", key)
		}
	}
}

// origin maps a method or function of a generic instance to its generic
// declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// scan is the type-checked non-test code of the repository: the hidb
// module and the hidb/bench module beside it. Packages of either are
// checked from source on first import; the standard library comes from
// go/importer's source importer.
type scan struct {
	fset *token.FileSet
	dirs map[string]string // import path -> directory
	pkgs map[string]*scanPkg
	std  types.Importer
}

type scanPkg struct {
	path  string
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newScan(t *testing.T) *scan {
	// Without cgo the source importer checks the pure-Go variants of net
	// and os/user instead of running the cgo tool.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	sc := &scan{fset: fset, dirs: map[string]string{}, pkgs: map[string]*scanPkg{},
		std: importer.ForCompiler(fset, "source", nil)}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		sc.dirs[filepath.ToSlash(filepath.Join("hidb", path))] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range sc.dirs {
		if _, err := sc.Import(path); err != nil && !errors.As(err, new(*build.NoGoError)) {
			t.Fatal(err)
		}
	}
	return sc
}

// Import implements types.Importer.
func (sc *scan) Import(path string) (*types.Package, error) {
	dir, ok := sc.dirs[path]
	if !ok {
		return sc.std.Import(path)
	}
	if p := sc.pkgs[path]; p != nil {
		return p.pkg, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &scanPkg{path: path, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(sc.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: sc}
	if p.pkg, err = conf.Check(path, sc.fset, p.files, p.info); err != nil {
		return nil, err
	}
	sc.pkgs[path] = p
	return p.pkg, nil
}

// stdInterfaces returns the interfaces with methods that the standard
// library packages the repository imports declare, and error.
func (sc *scan) stdInterfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	done := map[*types.Package]bool{}
	for _, p := range sc.pkgs {
		for _, imp := range p.pkg.Imports() {
			if _, ours := sc.dirs[imp.Path()]; ours || done[imp] {
				continue
			}
			done[imp] = true
			for _, name := range imp.Scope().Names() {
				tn, ok := imp.Scope().Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				n, ok := tn.Type().(*types.Named)
				if !ok || n.TypeParams().Len() > 0 {
					continue
				}
				if it, ok := n.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
	}
	return out
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
