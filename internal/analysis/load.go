package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed and type-checked package of the module.
type Package struct {
	// Path is the import path ("cloudgraph/internal/core").
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// newInfo returns a types.Info with every map the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// FindModuleRoot walks upward from dir to the directory holding go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(p); err == nil {
				p = unq
			}
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("no module directive in %s/go.mod", root)
}

// moduleImporter resolves module-internal imports from the already-checked
// package set and everything else (the stdlib) from source via go/importer.
type moduleImporter struct {
	module string
	pkgs   map[string]*types.Package
	std    types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == m.module || strings.HasPrefix(path, m.module+"/") {
		if pkg, ok := m.pkgs[path]; ok {
			return pkg, nil
		}
		return nil, fmt.Errorf("module package %s not loaded (import cycle?)", path)
	}
	return m.std.Import(path)
}

// LoadModule parses and type-checks every non-test package under root,
// resolving stdlib imports from source so no toolchain export data or
// third-party loader is needed. Directories named testdata, hidden
// directories, and generated artifact trees are skipped.
func LoadModule(root string) ([]*Package, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()

	// Parse every package directory.
	byPath := make(map[string]*Package)
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "artifacts") {
			return filepath.SkipDir
		}
		files, perr := parseDir(fset, path)
		if perr != nil {
			return perr
		}
		if len(files) == 0 {
			return nil
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		importPath := module
		if rel != "." {
			importPath = module + "/" + filepath.ToSlash(rel)
		}
		byPath[importPath] = &Package{Path: importPath, Fset: fset, Files: files}
		return nil
	})
	if err != nil {
		return nil, err
	}

	order, err := topoOrder(byPath, module)
	if err != nil {
		return nil, err
	}

	imp := &moduleImporter{
		module: module,
		pkgs:   make(map[string]*types.Package),
		std:    importer.ForCompiler(fset, "source", nil),
	}
	var out []*Package
	for _, path := range order {
		pkg := byPath[path]
		info := newInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, pkg.Files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", path, err)
		}
		pkg.Types = tpkg
		pkg.Info = info
		imp.pkgs[path] = tpkg
		out = append(out, pkg)
	}
	return out, nil
}

// parseDir parses the non-test Go files directly in dir, in stable order.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// topoOrder sorts package paths so every module-internal import precedes its
// importer.
func topoOrder(byPath map[string]*Package, module string) ([]string, error) {
	deps := make(map[string][]string, len(byPath))
	for path, pkg := range byPath {
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				ip, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if _, ok := byPath[ip]; ok && (ip == module || strings.HasPrefix(ip, module+"/")) {
					deps[path] = append(deps[path], ip)
				}
			}
		}
	}
	var order []string
	state := make(map[string]int) // 0 unseen, 1 visiting, 2 done
	var visit func(string) error
	visit = func(path string) error {
		switch state[path] {
		case 1:
			return fmt.Errorf("import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		ds := deps[path]
		sort.Strings(ds)
		for _, d := range ds {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[path] = 2
		order = append(order, path)
		return nil
	}
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}
