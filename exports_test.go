// A guard that keeps test-only code out of the production packages.
package radiobcast_test

import (
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

// modulePath is the root module's import path. The bench module
// (radiobcast/bench) replaces it with the repository root, so every
// import path under it names the directory of the same relative path.
const modulePath = "radiobcast"

// interfaceMethods allowlists the exported methods that production
// calls only through an interface, each with the interface it
// satisfies. A method is excused only when its receiver implements
// the named interface.
var interfaceMethods = []struct{ method, iface string }{
	{"Step", "radiobcast/internal/radio.Protocol"},
	{"StepNoise", "radiobcast/internal/radio.NoiseProtocol"},
	{"NextWake", "radiobcast/internal/radio.Waker"},
	{"Skip", "radiobcast/internal/radio.Waker"},
	{"Reset", "radiobcast/internal/faults.Model"},
	{"Apply", "radiobcast/internal/faults.Model"},
	{"Topology", "radiobcast/internal/faults.TopologyModel"},
	{"String", "fmt.Stringer"},
	{"Error", "error"},
	{"Unwrap", "net/http.ResponseController"},
	{"Write", "net/http.ResponseWriter"},
	{"WriteHeader", "net/http.ResponseWriter"},
	{"MarshalText", "encoding.TextMarshaler"},
	{"UnmarshalText", "encoding.TextUnmarshaler"},
}

// isTestSupport reports whether the package at import path p is a
// test-support package: a directory under internal/ whose name ends
// in "test", such as internal/radio/radiotest.
func isTestSupport(p string) bool {
	return strings.HasPrefix(p, modulePath+"/internal/") && strings.HasSuffix(p, "test")
}

// TestInternalExportsHaveProductionCallers type-checks every non-test
// file of the module and of bench/, and fails when an exported
// package-level name or method declared in a non-test file under
// internal/ (test-support packages aside) has no reference from another
// declaration of a non-test file outside the test-support packages, or
// when such a file imports a test-support package. Code that only tests
// call belongs in the _test.go files of the one package whose tests use
// it, or in a test-support package when tests of several packages share
// it.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and its standard-library imports from source")
	}
	l := &loader{
		fset: token.NewFileSet(),
		pkgs: map[string]*loadedPackage{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	var paths []string
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(dir, 0); err == nil {
			paths = append(paths, importPath(dir))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			t.Fatal(err)
		}
	}

	declared := map[string]types.Object{}
	for _, p := range paths {
		if strings.HasPrefix(p, modulePath+"/internal/") && !isTestSupport(p) {
			for _, obj := range exportedDecls(l.pkgs[p].pkg) {
				declared[objectKey(obj)] = obj
			}
		}
	}
	used := map[string]bool{}
	for _, p := range paths {
		if isTestSupport(p) {
			continue
		}
		lp := l.pkgs[p]
		for _, f := range lp.files {
			for _, imp := range f.Imports {
				if path := strings.Trim(imp.Path.Value, `"`); isTestSupport(path) {
					t.Errorf("%s: production code imports the test-support package %s", l.fset.Position(imp.Pos()), path)
				}
			}
			for _, decl := range f.Decls {
				own := declaredBy(lp.info, decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FieldList:
						// A method's receiver does not use its type.
						if fd, ok := decl.(*ast.FuncDecl); ok && n == fd.Recv {
							return false
						}
					case *ast.Ident:
						if obj := lp.info.Uses[n]; obj != nil && !own[obj] {
							used[objectKey(obj)] = true
						}
					}
					return true
				})
			}
		}
	}

	ifaces := l.interfaces(t)
	var unused []string
	for key, obj := range declared {
		if used[key] || excusedMethod(obj, ifaces) {
			continue
		}
		unused = append(unused, l.fset.Position(obj.Pos()).String()+": "+key)
	}
	slices.Sort(unused)
	for _, u := range unused {
		t.Errorf("%s has no production caller: delete it or move it into the tests that use it", u)
	}
}

// loader type-checks the packages of the module and of bench/ from
// their non-test files, each once, and the standard library through the
// source importer.
type loader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*loadedPackage
}

type loadedPackage struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
		lp, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return lp.pkg, nil
	}
	return l.std.Import(path)
}

func (l *loader) load(path string) (*loadedPackage, error) {
	if lp, ok := l.pkgs[path]; ok {
		return lp, nil
	}
	dir := filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/"))
	if dir == "" {
		dir = "."
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	lp := &loadedPackage{info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		lp.files = append(lp.files, f)
	}
	conf := types.Config{Importer: l}
	if lp.pkg, err = conf.Check(path, l.fset, lp.files, lp.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = lp
	return lp, nil
}

// interfaces resolves the allowlist's interfaces.
func (l *loader) interfaces(t *testing.T) map[string]*types.Interface {
	t.Helper()
	lookup := func(name string) types.Type {
		dot := strings.LastIndex(name, ".")
		pkg, err := l.Import(name[:dot])
		if err != nil {
			t.Fatal(err)
		}
		obj := pkg.Scope().Lookup(name[dot+1:])
		if obj == nil {
			t.Fatalf("allowlist: no type %s", name)
		}
		return obj.Type()
	}
	ifaces := map[string]*types.Interface{
		"error": types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
		// The interface{ Unwrap() http.ResponseWriter } through which an
		// http.ResponseController reaches a wrapped writer.
		"net/http.ResponseController": types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap",
			types.NewSignatureType(nil, nil, nil, nil,
				types.NewTuple(types.NewVar(token.NoPos, nil, "", lookup("net/http.ResponseWriter"))), false))}, nil).Complete(),
	}
	for _, e := range interfaceMethods {
		if _, ok := ifaces[e.iface]; !ok {
			ifaces[e.iface] = lookup(e.iface).Underlying().(*types.Interface)
		}
	}
	return ifaces
}

// excusedMethod reports whether obj is an allowlisted method whose
// receiver implements the interface the allowlist names for it.
func excusedMethod(obj types.Object, ifaces map[string]*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	for _, e := range interfaceMethods {
		if e.method == fn.Name() {
			t := recv.Type()
			if _, ok := t.(*types.Pointer); !ok {
				t = types.NewPointer(t)
			}
			if types.Implements(t, ifaces[e.iface]) {
				return true
			}
		}
	}
	return false
}

// exportedDecls lists pkg's exported package-level names and the
// exported methods of its package-level types.
func exportedDecls(pkg *types.Package) []types.Object {
	var objs []types.Object
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			objs = append(objs, obj)
		}
		if named, ok := obj.Type().(*types.Named); ok && !types.IsInterface(named) {
			if _, isType := obj.(*types.TypeName); isType {
				for m := range named.Methods() {
					if m.Exported() {
						objs = append(objs, m)
					}
				}
			}
		}
	}
	return objs
}

// objectKey names obj independently of the type-checking pass that
// produced it: "path.Name" for a package-level object and
// "path.Type.Method" for a method.
func objectKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
			}
			// An interface method: the interface, not its implementations.
			return obj.Pkg().Path() + ".(interface)." + obj.Name()
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// declaredBy returns the objects that decl declares, so that a
// declaration's references to itself do not count as callers.
func declaredBy(info *types.Info, decl ast.Decl) map[types.Object]bool {
	own := map[types.Object]bool{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		own[info.Defs[d.Name]] = true
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				own[info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, name := range s.Names {
					own[info.Defs[name]] = true
				}
			}
		}
	}
	return own
}

// importPath is the import path of the package in dir, a path relative
// to the repository root.
func importPath(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(dir)
}
