package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// index.go builds the module-wide dataflow index every RunModule analyzer
// shares: the table of declared functions with their packages, the static
// call graph across package boundaries (one type-check per Run means
// *types.Func identities agree module-wide), lazily built CFGs, and the
// //vet:borrowed annotations.
//
// Annotation grammar, placed in a function's doc comment:
//
//	//vet:borrowed <name> [<name>...]
//
// where each <name> is a parameter (or receiver) name, or the keyword
// "return". A named parameter is borrowed: the function may read it,
// mutate through it and lend it onward, but must not retain it — no stores
// to heap-reachable locations, closure captures, channel sends or returns.
// "return" declares the function's reference-typed results to be borrows
// themselves: callers receive them under the same rules, and the function
// is allowed to return borrowed values (the borrow transfers). Several
// directives may be stacked; names accumulate.

// Index is the shared dataflow index over one Run's package set.
type Index struct {
	// Pkgs is the package set the index was built over.
	Pkgs  []*Package
	Funcs map[*types.Func]*FuncInfo

	// funcsInOrder holds Funcs' values in (package path, position) order.
	funcsInOrder []*FuncInfo
}

// FuncInfo is one declared function or method with a body.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Borrowed holds the //vet:borrowed names ("return" included);
	// nil when the function carries no annotation.
	Borrowed map[string]bool

	// Calls lists the static call sites on the function's own execution
	// path — calls inside nested function literals are excluded, since
	// those bodies run later (and usually elsewhere).
	Calls []CallSite

	cfg *CFG
}

// CallSite is one static call expression with its resolved target, when
// the target is a named function or method (nil for calls through
// function values and interfaces).
type CallSite struct {
	Call   *ast.CallExpr
	Callee *types.Func
}

// CFG returns the function's control-flow graph, building it on first use.
func (fi *FuncInfo) CFG() *CFG {
	if fi.cfg == nil {
		fi.cfg = BuildCFG(fi.Decl.Body)
	}
	return fi.cfg
}

// paramFields returns the receiver, parameter and named-result fields.
func (fi *FuncInfo) paramFields() []*ast.Field {
	var out []*ast.Field
	if fi.Decl.Recv != nil {
		out = append(out, fi.Decl.Recv.List...)
	}
	if fi.Decl.Type.Params != nil {
		out = append(out, fi.Decl.Type.Params.List...)
	}
	if fi.Decl.Type.Results != nil {
		out = append(out, fi.Decl.Type.Results.List...)
	}
	return out
}

// Name renders the function for diagnostics: Recv.Method or pkg-local name.
func (fi *FuncInfo) Name() string {
	if fi.Decl.Recv != nil && len(fi.Decl.Recv.List) > 0 {
		if t := recvTypeName(fi.Decl.Recv.List[0].Type); t != "" {
			return t + "." + fi.Fn.Name()
		}
	}
	return fi.Fn.Name()
}

func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	}
	return ""
}

// BuildIndex constructs the shared index over pkgs.
func BuildIndex(pkgs []*Package) *Index {
	idx := &Index{Pkgs: pkgs, Funcs: make(map[*types.Func]*FuncInfo)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{
					Fn:       fn,
					Decl:     fd,
					Pkg:      pkg,
					Borrowed: parseBorrowed(fd.Doc),
				}
				fi.Calls = collectCalls(pkg, fd)
				idx.Funcs[fn] = fi
				idx.funcsInOrder = append(idx.funcsInOrder, fi)
			}
		}
	}
	// Stable iteration order for deterministic findings.
	sort.Slice(idx.funcsInOrder, func(i, j int) bool {
		return declaredBefore(idx.funcsInOrder[i], idx.funcsInOrder[j])
	})
	return idx
}

// declaredBefore orders functions by (package path, position).
func declaredBefore(a, b *FuncInfo) bool {
	if a.Pkg.Path != b.Pkg.Path {
		return a.Pkg.Path < b.Pkg.Path
	}
	return a.Decl.Pos() < b.Decl.Pos()
}

// FuncsInOrder returns every indexed function in deterministic
// (package path, position) order.
func (idx *Index) FuncsInOrder() []*FuncInfo { return idx.funcsInOrder }

// parseBorrowed extracts //vet:borrowed names from a doc comment.
func parseBorrowed(doc *ast.CommentGroup) map[string]bool {
	if doc == nil {
		return nil
	}
	var names map[string]bool
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//vet:borrowed")
		if !ok {
			continue
		}
		for _, name := range strings.Fields(rest) {
			if names == nil {
				names = make(map[string]bool)
			}
			names[name] = true
		}
	}
	return names
}

// collectCalls gathers the static call sites on fd's own execution path.
func collectCalls(pkg *Package, fd *ast.FuncDecl) []CallSite {
	var out []CallSite
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		out = append(out, CallSite{Call: call, Callee: staticCallee(pkg.Info, call.Fun)})
		return true
	})
	return out
}

// staticCallee resolves the named function or method that fun — a call's
// Fun, or a function value such as a method value — denotes, or nil for
// dynamic calls (function values, interface methods) and conversions.
func staticCallee(info *types.Info, fun ast.Expr) *types.Func {
	switch fun := ast.Unparen(fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				if fn, ok := sel.Obj().(*types.Func); ok {
					// Interface method: dynamic dispatch, no static body.
					if isInterfaceRecv(fn) {
						return nil
					}
					return fn
				}
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn // package-qualified call
		}
	}
	return nil
}

func isInterfaceRecv(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// funcPathName renders pkg-qualified names like "sync.(*Pool).Get" down to
// "sync.Get" style path.name keys for matching known stdlib functions.
func funcPathName(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
}
