package cloudgraph

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed names the declarations under internal/ that no program
// file mentions outside their own declaration and that stay on purpose,
// each with its reason: the interface the method satisfies, or the test
// in another package that uses it as a seam into live code.
var testOnlyAllowed = map[string]string{
	"analysis.moduleImporter.Import": "satisfies types.Importer",
	"diag.Manager.Trigger": "seam: statusz's tests land a bundle synchronously through it, " +
		"where the live path (TriggerAsync) is rate-limited and asynchronous",
	"graph.Graph.EachOut": "seam: the sharded==single pin in core, graphtest.Of and storetest.EncodeV1 " +
		"read every directed edge of a live graph through it",
}

// sourceFile is one parsed non-test .go file of the repository.
type sourceFile struct {
	path string // slash-separated, relative to the repository root
	pkg  string // import path of its directory
	file *ast.File
}

// parseProgramFiles parses every non-test .go file under root, testdata
// excluded, and records the import paths any _test.go file imports.
func parseProgramFiles(root, module string) ([]sourceFile, map[string]bool, *token.FileSet, error) {
	fset := token.NewFileSet()
	var files []sourceFile
	testImports := make(map[string]bool)
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if strings.HasSuffix(path, "_test.go") {
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				testImports[p] = true
			}
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(rel)); dir != "." {
			pkg += "/" + dir
		}
		files = append(files, sourceFile{path: rel, pkg: pkg, file: f})
		return nil
	})
	return files, testImports, fset, err
}

// testOnlyDecls lists, as "pkg.Name file:line" (pkg.Recv.Name for a
// method), every package-level func, method, type, var and const declared
// in a non-test file under internal/ whose name no non-test file mentions
// outside that declaration. It is a name scan: a use of any identifier
// spelled the same counts, so it under-reports, never over-reports.
// Packages that only _test.go files import are test support: they are
// neither checked nor counted as users.
func testOnlyDecls(files []sourceFile, testImports map[string]bool, fset *token.FileSet) []string {
	imported := make(map[string]bool)
	for _, sf := range files {
		for _, imp := range sf.file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			imported[p] = true
		}
	}
	testSupport := func(pkg string) bool { return !imported[pkg] && testImports[pkg] }

	uses := make(map[string]int)
	for _, sf := range files {
		if testSupport(sf.pkg) {
			continue
		}
		ast.Inspect(sf.file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
	}
	// usedOutside reports whether name is spelled anywhere outside decl.
	usedOutside := func(name string, decl ast.Node) bool {
		inside := 0
		ast.Inspect(decl, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				inside++
			}
			return true
		})
		return uses[name] > inside
	}

	var out []string
	report := func(sf sourceFile, qual string, name *ast.Ident, decl ast.Node) {
		if name.Name == "_" || name.Name == "init" || usedOutside(name.Name, decl) {
			return
		}
		out = append(out, fmt.Sprintf("%s%s %s:%d", sf.file.Name.Name+".", qual+name.Name,
			sf.path, fset.Position(name.Pos()).Line))
	}
	for _, sf := range files {
		if !strings.HasPrefix(sf.path, "internal/") || testSupport(sf.pkg) {
			continue
		}
		for _, d := range sf.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				qual := ""
				if d.Recv != nil && len(d.Recv.List) == 1 {
					qual = recvName(d.Recv.List[0].Type) + "."
				}
				report(sf, qual, d.Name, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						report(sf, "", s.Name, s)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							report(sf, "", name, s)
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// recvName is the type name of a method receiver: T for T, *T, T[K] or *T[K].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}

// TestNoTestOnlyDeclarations fails when code under internal/ is reached
// only from tests: a declaration no program file (the commands, the
// examples, bench and internal/ itself) mentions belongs in a _test.go
// file or nowhere. A declaration that must stay says why in
// testOnlyAllowed.
func TestNoTestOnlyDeclarations(t *testing.T) {
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	module := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))
	files, testImports, fset, err := parseProgramFiles(".", module)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 100 {
		t.Fatalf("parsed %d program files; the walk no longer reads the repository", len(files))
	}
	found := make(map[string]bool)
	for _, hit := range testOnlyDecls(files, testImports, fset) {
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
