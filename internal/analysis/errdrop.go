package analysis

import (
	"go/ast"
	"go/types"
)

// Errdrop flags silently discarded error returns: a call whose results
// include an error used as a bare statement, or an error result assigned to
// the blank identifier. Either form needs an inline
// `//lint:allow errdrop <why>` justification to pass.
//
// Writes that cannot fail are exempt: calls on (or printing into) a
// strings.Builder or bytes.Buffer. Deferred calls are exempt too — flagging
// every `defer f.Close()` would bury the signal.
func Errdrop(paths ...string) *Analyzer {
	a := &Analyzer{
		Name:  "errdrop",
		Doc:   "flag discarded error returns",
		Match: matchPrefixes(paths),
	}
	a.Run = runErrdrop
	return a
}

// matchPrefixes accepts packages whose import path equals or sits under one
// of the given prefixes; nil for an empty list.
func matchPrefixes(prefixes []string) func(string) bool {
	if len(prefixes) == 0 {
		return nil
	}
	return func(pkgPath string) bool {
		for _, pre := range prefixes {
			if pkgPath == pre || (len(pkgPath) > len(pre) && pkgPath[:len(pre)] == pre && pkgPath[len(pre)] == '/') {
				return true
			}
		}
		return false
	}
}

func runErrdrop(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt, *ast.GoStmt:
				return false
			case *ast.ExprStmt:
				call, ok := n.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if idx := errResultIndex(p, call); idx >= 0 && !infallibleWrite(p, call) {
					p.Reportf(call.Pos(), "error return of %s discarded; handle it or justify with //lint:allow errdrop",
						callName(call))
				}
			case *ast.AssignStmt:
				p.checkBlankErr(n)
			}
			return true
		})
	}
}

// checkBlankErr flags `_`-assignments of error-typed values.
func (p *Pass) checkBlankErr(asg *ast.AssignStmt) {
	// Multi-value form: lhs count matches the callee's result count.
	if len(asg.Rhs) == 1 && len(asg.Lhs) > 1 {
		call, ok := asg.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		sig := callSignature(p, call)
		if sig == nil || sig.Results().Len() != len(asg.Lhs) {
			return
		}
		if infallibleWrite(p, call) {
			return
		}
		for i, lhs := range asg.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" && isErrorType(sig.Results().At(i).Type()) {
				p.Reportf(lhs.Pos(), "error result of %s assigned to _; handle it or justify with //lint:allow errdrop",
					callName(call))
			}
		}
		return
	}
	for i, lhs := range asg.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" || i >= len(asg.Rhs) {
			continue
		}
		if t := p.Info.TypeOf(asg.Rhs[i]); t != nil && isErrorType(t) {
			if call, ok := asg.Rhs[i].(*ast.CallExpr); ok && infallibleWrite(p, call) {
				continue
			}
			p.Reportf(lhs.Pos(), "error value assigned to _; handle it or justify with //lint:allow errdrop")
		}
	}
}

// errResultIndex returns the index of the first error result of call, or -1.
func errResultIndex(p *Pass, call *ast.CallExpr) int {
	sig := callSignature(p, call)
	if sig == nil {
		return -1
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return i
		}
	}
	return -1
}

func callSignature(p *Pass, call *ast.CallExpr) *types.Signature {
	t := p.Info.TypeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// infallibleWrite reports whether call writes into a strings.Builder or
// bytes.Buffer — either as the method receiver or as the destination
// argument of an fmt.Fprint* call — whose Write methods never return a
// non-nil error.
func infallibleWrite(p *Pass, call *ast.CallExpr) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if isBuilderType(s.Recv()) {
				return true
			}
		}
	}
	if pkgPath, name := p.pkgFuncCall(call); pkgPath == "fmt" &&
		(name == "Fprintf" || name == "Fprintln" || name == "Fprint") && len(call.Args) > 0 {
		if t := p.Info.TypeOf(call.Args[0]); t != nil && isBuilderType(t) {
			return true
		}
	}
	return false
}

func isBuilderType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

func callName(call *ast.CallExpr) string {
	switch call.Fun.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return types.ExprString(call.Fun)
	}
	return "call"
}
