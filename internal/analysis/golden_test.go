package analysis

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Golden-file tests: each testdata/<analyzer> directory is a standalone
// package whose sources carry `// want "substr"` markers on the lines the
// analyzer must flag (several markers on one line when several findings
// land there). The test fails on any unmatched marker (missed diagnostic)
// and on any finding without a marker (false positive), so the testdata
// doubles as the analyzer's behavioral spec — including the lines with a
// //lint:allow directive and no marker, which pin the suppression path.

var wantRe = regexp.MustCompile(`want "([^"]+)"`)

type goldenWant struct {
	file    string
	line    int
	substr  string
	matched bool
}

// collectWants scans the package sources for want markers.
func collectWants(t *testing.T, dir string) []*goldenWant {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	var wants []*goldenWant
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, comment, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			for _, m := range wantRe.FindAllStringSubmatch("want "+comment, -1) {
				wants = append(wants, &goldenWant{file: path, line: i + 1, substr: m[1]})
			}
		}
	}
	return wants
}

// TestGolden runs every suite analyzer over testdata/<name> — a
// standalone package — with path gating cleared, and matches findings
// against the markers. The suite and the spec directories must agree one
// to one: an analyzer without a spec, or a spec naming no analyzer, fails.
func TestGolden(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	specs := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() {
			specs[e.Name()] = true
		}
	}
	for _, a := range Suite() {
		if !specs[a.Name] {
			t.Errorf("analyzer %s has no testdata/%s spec", a.Name, a.Name)
			continue
		}
		delete(specs, a.Name)
		t.Run(a.Name, func(t *testing.T) { runGolden(t, a) })
	}
	for name := range specs {
		t.Errorf("testdata/%s names no suite analyzer", name)
	}
}

func runGolden(t *testing.T, a *Analyzer) {
	dir := filepath.Join("testdata", a.Name)
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	a.Match = nil // testdata package paths never match real module paths
	findings := Run([]*Analyzer{a}, []*Package{pkg})
	wants := collectWants(t, dir)
	if len(wants) == 0 {
		t.Fatalf("no want markers in %s", dir)
	}

	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == f.File && w.line == f.Line && strings.Contains(f.Message, w.substr) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding (false positive or unmarked): %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no %s finding containing %q", w.file, w.line, a.Name, w.substr)
		}
	}
}

// TestModuleClean runs the full suite over the real module, pinning the
// tree to zero findings — the same gate CI applies via cmd/cloudgraph-vet.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow under -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(Suite(), pkgs)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// LoadDir parses and type-checks the single package in dir (stdlib imports
// only) — the golden-file tests' loader.
func LoadDir(dir string) (*Package, error) {
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	path := files[0].Name.Name
	info := newInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", dir, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
