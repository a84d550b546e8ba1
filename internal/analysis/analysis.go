// Package analysis is a dependency-free analyzer framework (stdlib
// go/parser + go/types + go/importer only) plus the project-specific
// analyzers behind cmd/cloudgraph-vet. Each analyzer encodes one invariant
// of this codebase that `go vet` cannot see and names the live sites it
// guards (DESIGN.md, Static analysis). Four are per-package AST walks:
//
//   - detclock:   no ambient clock or global RNG in the deterministic
//     simulation packages; map-order-dependent accumulation must sort
//   - wirestruct: wire-schema structs are built with keyed literals only,
//     and their codecs must reference every field
//   - errdrop:    error returns may not be silently discarded
//   - floatcmp:   no ==/!= on floating-point values
//
// Three are module-wide and share an index (cfg.go, index.go): per-function
// basic-block CFGs and a module-wide static call graph.
//
//   - busconsumer: window consumers on the engine's fan-out bus must not
//     re-enter the engine ingest or lifecycle path (Ingest, Flush, Close),
//     directly or through any module function
//   - borrowescape: values marked borrowed (//vet:borrowed params and
//     results, sync.Pool.Get results) must not escape the borrowing call —
//     no stores to heap-reachable locations, closure/goroutine captures,
//     channel sends, undeclared returns, or uses after sync.Pool.Put
//   - lockorder: the inter-procedural mutex acquisition graph must be
//     acyclic, and nothing that may block (channel send/receive, select
//     without default, callback invocation, sync waits, Bus.Drain and
//     Bus.Close, or a module call reaching one) may run while a mutex is
//     held
//
// Findings can be suppressed per line with a justified inline comment:
//
//	//lint:allow <analyzer> <why this site is safe>
//
// trailing the offending line, or alone on the line above it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzer is one named check over a type-checked package (Run) or over
// the whole package set at once (RunModule). Exactly one of the two is set.
type Analyzer struct {
	Name string
	Doc  string
	// Match restricts a per-package analyzer to packages whose import path
	// it accepts; nil means every package.
	Match func(pkgPath string) bool
	Run   func(p *Pass)
	// RunModule, when set, marks a module-wide analyzer: it runs once per
	// Run call with the shared index (CFGs, call graph) built over every
	// loaded package.
	RunModule func(p *ModulePass)
}

// Pass is one analyzer applied to one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Path is the package's import path.
	Path string

	findings []Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.findings = append(p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass is one module-wide analyzer applied to the full package set.
type ModulePass struct {
	Analyzer *Analyzer
	// Index is the shared index over every loaded package.
	Index *Index

	findings []Finding
}

// Reportf records a finding at pos, which must belong to pkg's file set.
func (p *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	position := pkg.Fset.Position(pos)
	p.findings = append(p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies the analyzers to every package, drops findings suppressed by
// //lint:allow comments, and returns the rest ordered by file and line.
// Per-package analyzers run once per package; module-wide analyzers run
// once over the whole set with the shared index.
func Run(analyzers []*Analyzer, pkgs []*Package) []Finding {
	allowed := make(allowSet)
	for _, pkg := range pkgs {
		allowed.add(pkg.Fset, pkg.Files)
	}
	var out []Finding
	for _, f := range runAll(analyzers, pkgs) {
		if !allowed.allows(f) {
			out = append(out, f)
		}
	}
	return out
}

// runAll is Run without the //lint:allow filter: every finding, ordered
// by file and line.
func runAll(analyzers []*Analyzer, pkgs []*Package) []Finding {
	var out []Finding
	var idx *Index
	for _, a := range analyzers {
		if a.RunModule != nil {
			if idx == nil {
				idx = BuildIndex(pkgs)
			}
			pass := &ModulePass{Analyzer: a, Index: idx}
			a.RunModule(pass)
			out = append(out, pass.findings...)
			continue
		}
		for _, pkg := range pkgs {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Path:     pkg.Path,
			}
			a.Run(pass)
			out = append(out, pass.findings...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}
