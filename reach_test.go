package cloudgraph

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cloudgraph/internal/analysis"
)

// testOnlyAllowed names the declarations under internal/ that no program
// file reaches and that stay on purpose, each with its reason: the test in
// another package that uses it as a seam into live code.
var testOnlyAllowed = map[string]string{
	"diag.Manager.Trigger": "seam: statusz's tests land a bundle synchronously through it, " +
		"where the live path (TriggerAsync) is rate-limited and asynchronous",
	"graph.Graph.EachOut": "seam: the sharded==single pin in core, graphtest.Of and storetest.EncodeV1 " +
		"read every directed edge of a live graph through it",
}

// testFileImports returns the import paths any _test.go file under root
// imports, testdata and hidden directories excluded.
func testFileImports(root string) (map[string]bool, error) {
	fset := token.NewFileSet()
	imports := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			imports[p] = true
		}
		return nil
	})
	return imports, err
}

// declaration is one package-level func, method, type, var or const.
type declaration struct {
	node ast.Node // its whole declaration: uses inside it do not count
	pkg  *analysis.Package
}

// origin maps an object of an instantiated generic type or function to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// collectInterfaces adds to set the non-empty interface types t is or
// directly holds: a signature's parameters and results, an element type.
func collectInterfaces(t types.Type, set map[types.Type]bool) {
	switch u := t.(type) {
	case *types.Named, *types.Alias:
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			set[t] = true
		}
	case *types.Interface:
		if u.NumMethods() > 0 {
			set[t] = true
		}
	case *types.Signature:
		for _, tuple := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				collectInterfaces(tuple.At(i).Type(), set)
			}
		}
	case *types.Pointer:
		collectInterfaces(u.Elem(), set)
	case *types.Slice:
		collectInterfaces(u.Elem(), set)
	case *types.Array:
		collectInterfaces(u.Elem(), set)
	case *types.Chan:
		collectInterfaces(u.Elem(), set)
	case *types.Map:
		collectInterfaces(u.Key(), set)
		collectInterfaces(u.Elem(), set)
	}
}

// testOnlyDecls lists, as "pkg.Name file:line" (pkg.Recv.Name for a
// method), every package-level func, method, type, var and const declared
// in a non-test file under internal/ that no program package uses outside
// that declaration. Uses are resolved by the type checker, so a program
// identifier that merely shares a name reaches nothing; an instantiated
// generic resolves to its declaration. A method also counts as reached
// when its type satisfies an interface the program uses that has the
// method — the interface's callers may be in the standard library, as
// go/types calls types.Importer.Import and fmt calls String. Packages that only _test.go files
// import are test support: they are neither checked nor counted as users.
func testOnlyDecls(root string, pkgs []*analysis.Package, testImports map[string]bool) []string {
	imported := make(map[string]bool)
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			imported[imp.Path()] = true
		}
	}
	var program []*analysis.Package
	for _, p := range pkgs {
		if imported[p.Path] || !testImports[p.Path] {
			program = append(program, p)
		}
	}

	decls := make(map[types.Object]declaration)
	declare := func(p *analysis.Package, name *ast.Ident, node ast.Node) {
		if name.Name != "_" && name.Name != "init" {
			decls[p.Info.Defs[name]] = declaration{node: node, pkg: p}
		}
	}
	for _, p := range program {
		if !strings.Contains(p.Path+"/", "/internal/") {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					declare(p, d.Name, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							declare(p, s.Name, s)
						case *ast.ValueSpec:
							for _, name := range s.Names {
								declare(p, name, s)
							}
						}
					}
				}
			}
		}
	}

	reached := make(map[types.Object]bool)
	// fmt finds a String() string method by type assertion on any value it
	// formats, so that interface is always in use.
	result := types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String]))
	stringer := types.NewInterfaceType([]*types.Func{
		types.NewFunc(token.NoPos, nil, "String", types.NewSignatureType(nil, nil, nil, nil, result, false)),
	}, nil).Complete()
	interfaces := map[types.Type]bool{stringer: true}
	for _, p := range program {
		for id, obj := range p.Info.Uses {
			obj = origin(obj)
			if d, ok := decls[obj]; ok && (id.Pos() < d.node.Pos() || id.Pos() >= d.node.End()) {
				reached[obj] = true
			}
			collectInterfaces(obj.Type(), interfaces)
		}
		for _, tv := range p.Info.Types {
			collectInterfaces(tv.Type, interfaces)
		}
	}
	// satisfies reports whether a method of a used interface is fn.
	satisfies := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			return false
		}
		for t := range interfaces {
			it := t.Underlying().(*types.Interface)
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() &&
					(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
					return true
				}
			}
		}
		return false
	}

	var out []string
	for obj, d := range decls {
		if reached[obj] {
			continue
		}
		name := obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			recv := fn.Type().(*types.Signature).Recv()
			if recv != nil {
				if satisfies(fn) {
					continue
				}
				t := recv.Type()
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				name = t.(*types.Named).Obj().Name() + "." + name
			}
		}
		pos := d.pkg.Fset.Position(obj.Pos())
		rel, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			rel = pos.Filename
		}
		out = append(out, fmt.Sprintf("%s.%s %s:%d", d.pkg.Types.Name(), name, filepath.ToSlash(rel), pos.Line))
	}
	sort.Strings(out)
	return out
}

// TestNoTestOnlyDeclarations fails when code under internal/ is reached
// only from tests: a declaration no program package (the commands, the
// examples, bench and internal/ itself) uses belongs in a _test.go file or
// nowhere. A declaration that must stay says why in testOnlyAllowed.
func TestNoTestOnlyDeclarations(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 30 {
		t.Fatalf("loaded %d program packages; the load no longer reads the repository", len(pkgs))
	}
	testImports, err := testFileImports(root)
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[string]bool)
	for _, hit := range testOnlyDecls(root, pkgs, testImports) {
		name := strings.Fields(hit)[0]
		found[name] = true
		if _, ok := testOnlyAllowed[name]; !ok {
			t.Errorf("only tests reach %s", hit)
		}
	}
	for name := range testOnlyAllowed {
		if !found[name] {
			t.Errorf("allowlisted %s is no longer test-only (or is gone): drop it from testOnlyAllowed", name)
		}
	}
}
