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

// extraSpecs maps a spec directory that pins one half of an analyzer to
// that analyzer: testdata/lockscope holds lockorder's blocking-under-lock
// cases, apart from its acquisition-order ones in testdata/lockorder.
var extraSpecs = map[string]string{"lockscope": "lockorder"}

// TestGolden runs every suite analyzer over testdata/<name> — a
// standalone package — with path gating cleared, and matches findings
// against the markers; an extraSpecs directory runs as its own subtest.
// The suite and the spec directories must agree: an analyzer without a
// spec, or a spec naming no analyzer, fails.
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
		t.Run(a.Name, func(t *testing.T) { runGolden(t, a, a.Name) })
		for spec, name := range extraSpecs {
			if name == a.Name && specs[spec] {
				delete(specs, spec)
				t.Run(spec, func(t *testing.T) { runGolden(t, a, spec) })
			}
		}
	}
	for name := range specs {
		t.Errorf("testdata/%s names no suite analyzer", name)
	}
}

func runGolden(t *testing.T, a *Analyzer, spec string) {
	dir := filepath.Join("testdata", spec)
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

// TestModuleAllowsAreLive pins every //lint:allow in the module to a
// finding it suppresses: the directive must name a suite analyzer, and
// that analyzer, run with suppressions off, must report on a line the
// directive covers. A directive outliving its site, or naming a renamed
// or ungated analyzer, fails here instead of silently suppressing nothing.
func TestModuleAllowsAreLive(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow under -short")
	}
	pkgs := loadModulePkgs(t)
	suite := make(map[string]bool)
	for _, a := range Suite() {
		suite[a.Name] = true
	}
	type site struct {
		analyzer, file string
		line           int
	}
	found := make(map[site]bool)
	for _, f := range runAll(Suite(), pkgs) {
		found[site{f.Analyzer, f.File, f.Line}] = true
	}
	for _, pkg := range pkgs {
		for _, d := range allowDirectives(pkg.Fset, pkg.Files) {
			if !suite[d.name] {
				t.Errorf("%s:%d: //lint:allow %s names no suite analyzer", d.file, d.lines[0], d.name)
				continue
			}
			live := false
			for _, line := range d.lines {
				live = live || found[site{d.name, d.file, line}]
			}
			if !live {
				t.Errorf("%s:%d: //lint:allow %s suppresses no %s finding", d.file, d.lines[0], d.name, d.name)
			}
		}
	}
}

// TestCrossPackageFindings runs the suite over a two-package module: the
// blocking call under a lock and the consumer's engine re-entry each sit
// one package away from where they start, so only an analyzer walking the
// module-wide call graph sees them.
func TestCrossPackageFindings(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module xmod\n\ngo 1.24\n",
		"core/core.go": `package core

type Engine struct{}

func (e *Engine) Flush() {}

type ConsumerSpec struct {
	Name string
	Fn   func()
}

// Send blocks until a receiver takes v.
func Send(ch chan int, v int) { ch <- v }

// Settle re-enters the engine: harmless on its own.
func Settle(e *Engine) {
	e.Flush()
}
`,
		"app/app.go": `package app

import (
	"sync"

	"xmod/core"
)

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) notify() {
	s.mu.Lock()
	core.Send(s.ch, 1)
	s.mu.Unlock()
}

func consumer(e *core.Engine) core.ConsumerSpec {
	return core.ConsumerSpec{Name: "settler", Fn: func() { core.Settle(e) }}
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range Run(Suite(), pkgs) {
		rel, err := filepath.Rel(dir, f.File)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s:%d: %s: %s", filepath.ToSlash(rel), f.Line, f.Analyzer, f.Message))
	}
	want := []string{
		"app/app.go:16: lockorder: call to Send while S.mu is held: Send sends on a channel",
		"core/core.go:17: busconsumer: bus consumer settler calls Engine.Flush: drains the bus and would wait on this consumer forever; consumers must never re-enter the engine",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
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
