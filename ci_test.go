package cloudgraph

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciSelection is one `go test` line of the CI workflow that picks tests by
// name: its -run or -fuzz pattern and the package directory it runs in.
type ciSelection struct {
	line    int
	flag    string
	pattern string
	dir     string
}

// goTestValueFlags are the go test flags CI passes a separate value to.
var goTestValueFlags = map[string]bool{
	"-run": true, "-fuzz": true, "-fuzztime": true, "-bench": true,
	"-benchtime": true, "-count": true, "-timeout": true,
}

// ciSelections extracts every -run and -fuzz pattern, with its package,
// from the workflow's `go test` lines.
func ciSelections(workflow string) []ciSelection {
	var out []ciSelection
	for i, line := range strings.Split(workflow, "\n") {
		fields := strings.Fields(line)
		start := -1
		for k := 0; k+1 < len(fields); k++ {
			if fields[k] == "go" && fields[k+1] == "test" {
				start = k + 2
				break
			}
		}
		if start < 0 || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		var dir string
		patterns := make(map[string]string)
		for k := start; k < len(fields); k++ {
			f := strings.Trim(fields[k], `'"`)
			switch {
			case goTestValueFlags[f] && k+1 < len(fields):
				k++
				if f == "-run" || f == "-fuzz" {
					patterns[f] = strings.Trim(fields[k], `'"`)
				}
			case strings.HasPrefix(f, "-"):
			default:
				dir = f
			}
		}
		if dir == "" || strings.HasSuffix(dir, "...") {
			continue
		}
		for _, flag := range []string{"-run", "-fuzz"} {
			if p, ok := patterns[flag]; ok {
				out = append(out, ciSelection{line: i + 1, flag: flag, pattern: p, dir: dir})
			}
		}
	}
	return out
}

// checkCISelections reports every alternative of a selection's pattern
// that matches no test (for -run) or fuzz target (for -fuzz) declared in
// its package. An empty alternative — `-run '^$'`, which runs nothing on
// purpose — is skipped.
func checkCISelections(sels []ciSelection) []error {
	var errs []error
	funcs := make(map[string][]string)
	for _, s := range sels {
		names, ok := funcs[s.dir]
		if !ok {
			var err error
			if names, err = testFuncs(s.dir); err != nil {
				errs = append(errs, fmt.Errorf("line %d: %v", s.line, err))
				continue
			}
			funcs[s.dir] = names
		}
		for _, alt := range strings.Split(s.pattern, "|") {
			alt = strings.TrimSuffix(strings.TrimPrefix(strings.Split(alt, "/")[0], "^"), "$")
			if alt == "" {
				continue
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				errs = append(errs, fmt.Errorf("line %d: %s %q: %v", s.line, s.flag, alt, err))
				continue
			}
			found := false
			for _, name := range names {
				if (s.flag == "-run" || strings.HasPrefix(name, "Fuzz")) && re.MatchString(name) {
					found = true
					break
				}
			}
			if !found {
				errs = append(errs, fmt.Errorf("line %d: %s %q matches no test in %s", s.line, s.flag, alt, s.dir))
			}
		}
	}
	return errs
}

// testFuncs lists the Test and Fuzz functions declared in dir's test files.
func testFuncs(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("no test files in %s (%v)", dir, err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil &&
				(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names, nil
}

// TestCISelectionsNameTests fails when a CI step selects a test by name
// that does not exist: `go test -run` passes silently when its pattern
// matches nothing, so a renamed or deleted test would drop out of the gate
// that names it without anyone noticing.
func TestCISelectionsNameTests(t *testing.T) {
	wf, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	sels := ciSelections(string(wf))
	if len(sels) < 20 {
		t.Fatalf("parsed %d -run/-fuzz selections from the workflow; the parser no longer reads it", len(sels))
	}
	for _, err := range checkCISelections(sels) {
		t.Error(err)
	}
}

// TestCISelectionsCatchMisspelling shows the guard firing: a misspelled
// alternative beside a valid one, and a misspelled fuzz target, are each
// reported, and nothing else is.
func TestCISelectionsCatchMisspelling(t *testing.T) {
	wf := `      - name: gate
        run: |
          go test -race -count=1 -run 'TestQueryEndToEnd|TestQueryEndToEnt' ./internal/analytics/
          go test ./internal/store/ -run '^$' -fuzz FuzzDecodeGrahp -fuzztime 30s
`
	errs := checkCISelections(ciSelections(wf))
	if len(errs) != 2 || !strings.Contains(errs[0].Error(), `"TestQueryEndToEnt"`) ||
		!strings.Contains(errs[1].Error(), `"FuzzDecodeGrahp"`) {
		t.Fatalf("want the two misspellings reported, got %v", errs)
	}
}
