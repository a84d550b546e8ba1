package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// allowSet records which analyzers are suppressed on which lines of which
// files, from //lint:allow comments.
type allowSet map[string]map[int][]string

// add scans the files' comments for suppression directives:
//
//	//lint:allow <analyzer> <justification>
//
// A directive suppresses the named analyzer on its own line. A directive
// alone on its line — so a long justification can sit above a long
// statement — also covers the line immediately below it; a trailing one
// does not.
func (s allowSet) add(fset *token.FileSet, files []*ast.File) {
	for _, f := range files {
		var codeLines map[int]bool // built on the file's first directive
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow ")
				if !ok {
					continue
				}
				name, _, _ := strings.Cut(strings.TrimSpace(text), " ")
				if name == "" {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := s[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					s[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], name)
				if codeLines == nil {
					codeLines = nodeLines(fset, f)
				}
				if !codeLines[pos.Line] {
					byLine[pos.Line+1] = append(byLine[pos.Line+1], name)
				}
			}
		}
	}
}

// nodeLines returns the lines of f on which some AST node starts. A line
// comment shares its line with code exactly when its line is in the set.
func nodeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	tf := fset.File(f.Pos())
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.CommentGroup, *ast.Comment:
			return false
		}
		lines[tf.Line(n.Pos())] = true
		return true
	})
	return lines
}

// allows reports whether f is suppressed by a directive.
func (s allowSet) allows(f Finding) bool {
	for _, name := range s[f.File][f.Line] {
		if name == f.Analyzer {
			return true
		}
	}
	return false
}
