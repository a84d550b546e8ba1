package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Borrowescape enforces the module's borrow discipline: a value handed to a
// function on loan must not outlive the loan. Three kinds of value are
// borrowed:
//
//   - parameters (and receivers) named in a //vet:borrowed doc directive —
//     the ingest hot path lends its record batches and scratch buffers this
//     way (flowlog.Reader.ReadBatch's dst, core.Engine.Ingest's recs,
//     analytics' connScratch);
//   - results of sync.Pool.Get — pool objects go back to the pool, so any
//     reference retained past Put is a use-after-free in slow motion;
//   - results of calls to functions annotated //vet:borrowed return — the
//     borrow transfers to the caller.
//
// A borrowed value escapes when it (or a carrier derived from it — a
// subslice, an element pointer, a reference-typed field) is stored
// somewhere that outlives the call: a package-level variable, a field of a
// non-borrowed object, a composite literal, a channel, a closure or
// goroutine, a return statement (unless the function declares the transfer
// with "return"), or a callee whose own dataflow summary says the
// parameter is retained. Pool borrows additionally must not be used after
// sync.Pool.Put: a use is flagged only when every CFG path to it passes a
// Put (a must-analysis, so the Put at the bottom of a loop does not poison
// the next iteration).
//
// Carriers propagate through aliasing, not through value copies: recs[i]
// of a []Record is a struct copy and owns nothing, while &recs[i],
// recs[1:] and recs[i].ptrField still point into the borrowed buffer.
// Stores into a carrier of the same borrow (sc.batch = batch where sc is
// borrowed) are in-place mutation of the loaned object and allowed.
//
// Known optimism, by design: calls into packages outside the module are
// assumed non-retaining (the stdlib functions on this path — binary
// encoding, bufio — do not retain their arguments), and stores through a
// local pointer are treated as local. The analyzer is a reviewer for the
// hot path's ownership contracts, not a proof.
func Borrowescape() *Analyzer {
	a := &Analyzer{
		Name: "borrowescape",
		Doc:  "borrowed values (//vet:borrowed params, sync.Pool.Get results) must not escape the borrowing call or be used after Pool.Put",
	}
	a.RunModule = runBorrowescape
	return a
}

// borrowSummary records, for one function, which of its reference-typed
// parameters may be retained past the call (escapes) and which may be
// handed back to the caller through a return value (returns).
type borrowSummary struct {
	escapes map[*types.Var]bool
	returns map[*types.Var]bool
}

type borrowEngine struct {
	idx       *Index
	summaries map[*FuncInfo]*borrowSummary
}

func runBorrowescape(p *ModulePass) {
	be := &borrowEngine{
		idx:       p.Index,
		summaries: make(map[*FuncInfo]*borrowSummary),
	}
	be.buildSummaries()
	for _, fi := range p.Index.FuncsInOrder() {
		be.checkFunc(p, fi)
	}
}

// buildSummaries runs the escape walk over every function with all of its
// reference-typed parameters as roots, iterating module-wide to a fixed
// point so summaries flow through call chains (a parameter stored by a
// callee's callee still counts as retained).
func (be *borrowEngine) buildSummaries() {
	funcs := be.idx.FuncsInOrder()
	for _, fi := range funcs {
		be.summaries[fi] = &borrowSummary{
			escapes: make(map[*types.Var]bool),
			returns: make(map[*types.Var]bool),
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			roots := make(map[*types.Var]bool)
			for _, field := range fi.paramFields() {
				for _, name := range field.Names {
					if v, ok := fi.Pkg.Info.Defs[name].(*types.Var); ok && refKind(v.Type()) {
						roots[v] = true
					}
				}
			}
			if len(roots) == 0 {
				continue
			}
			escaped, returned := be.walkFunc(fi, roots, nil)
			sum := be.summaries[fi]
			for v := range escaped {
				if !sum.escapes[v] {
					sum.escapes[v] = true
					changed = true
				}
			}
			for v := range returned {
				if !sum.returns[v] {
					sum.returns[v] = true
					changed = true
				}
			}
		}
	}
}

// checkFunc reports escapes of fi's real borrows: annotated parameters,
// Pool.Get results, and borrowed-return call results.
func (be *borrowEngine) checkFunc(p *ModulePass, fi *FuncInfo) {
	roots := make(map[*types.Var]bool)
	for _, field := range fi.paramFields() {
		for _, name := range field.Names {
			if fi.Borrowed[name.Name] {
				if v, ok := fi.Pkg.Info.Defs[name].(*types.Var); ok {
					roots[v] = true
				}
			}
		}
	}
	pool := be.collectPoolRoots(fi, roots)
	if len(roots) == 0 {
		return
	}
	be.walkFunc(fi, roots, func(pos token.Pos, format string, args ...any) {
		p.Reportf(fi.Pkg, pos, format, args...)
	})
	if len(pool) > 0 {
		be.checkUseAfterPut(p, fi, pool)
	}
}

// collectPoolRoots adds variables bound to sync.Pool.Get results (and to
// results of //vet:borrowed-return calls) into roots, returning the subset
// that came from a pool and is therefore subject to the Put rule.
func (be *borrowEngine) collectPoolRoots(fi *FuncInfo, roots map[*types.Var]bool) map[*types.Var]bool {
	pool := make(map[*types.Var]bool)
	info := fi.Pkg.Info
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		fromPool := be.isPoolGet(info, as.Rhs[0])
		fromBorrowedReturn := !fromPool && be.isBorrowedReturnCall(info, as.Rhs[0])
		if !fromPool && !fromBorrowedReturn {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			v, ok := info.Defs[id].(*types.Var)
			if !ok {
				if v, ok = info.Uses[id].(*types.Var); !ok {
					continue
				}
			}
			if !refKind(v.Type()) {
				continue
			}
			roots[v] = true
			if fromPool {
				pool[v] = true
			}
		}
		return true
	})
	return pool
}

// isPoolGet matches sync.Pool Get() calls, unwrapping the customary type
// assertion (pool.Get().(*T)).
func (be *borrowEngine) isPoolGet(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := staticCallee(info, call)
	return fn != nil && fn.Name() == "Get" && funcPathName(fn) == "sync.Get"
}

// isBorrowedReturnCall matches calls to module functions annotated
// //vet:borrowed return.
func (be *borrowEngine) isBorrowedReturnCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := staticCallee(info, call)
	if fn == nil {
		return false
	}
	callee := be.idx.Funcs[fn]
	return callee != nil && callee.Borrowed["return"]
}

// walkFunc is the escape engine shared by summary building and finding
// reporting. It grows the borrowed-carrier set to a fixed point, then makes
// one reporting pass. report is nil in summary mode. The returned sets map
// ROOT variables (not derived carriers) that escaped or were returned.
func (be *borrowEngine) walkFunc(fi *FuncInfo, roots map[*types.Var]bool, report func(pos token.Pos, format string, args ...any)) (escaped, returned map[*types.Var]bool) {
	bw := &borrowWalk{
		be:       be,
		fi:       fi,
		roots:    roots,
		carriers: make(map[*types.Var]map[*types.Var]bool),
		escaped:  make(map[*types.Var]bool),
		returned: make(map[*types.Var]bool),
		report:   report,
	}
	for v := range roots {
		bw.carriers[v] = map[*types.Var]bool{v: true}
	}
	// Propagate carriers until no new variable joins the set.
	for {
		before := bw.carrierCount()
		bw.walk(false)
		if bw.carrierCount() == before {
			break
		}
	}
	bw.walk(true)
	return bw.escaped, bw.returned
}

// borrowWalk is one function's escape traversal state.
type borrowWalk struct {
	be    *borrowEngine
	fi    *FuncInfo
	roots map[*types.Var]bool

	// carriers maps each borrowed-carrying local to the root borrows it may
	// alias; a store into a carrier of the same root is in-place mutation.
	carriers map[*types.Var]map[*types.Var]bool

	escaped   map[*types.Var]bool
	returned  map[*types.Var]bool
	report    func(pos token.Pos, format string, args ...any)
	reporting bool
}

func (bw *borrowWalk) carrierCount() int {
	n := 0
	for _, rs := range bw.carriers {
		n += len(rs)
	}
	return n
}

// rootsOf returns the root borrows expr may alias, nil when it carries none.
func (bw *borrowWalk) rootsOf(e ast.Expr) map[*types.Var]bool {
	info := bw.fi.Pkg.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok {
			return bw.carriers[v]
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			// &x and &x[i] both point into x's storage regardless of the
			// element's own kind.
			switch inner := ast.Unparen(e.X).(type) {
			case *ast.IndexExpr:
				return bw.rootsOf(inner.X)
			default:
				return bw.rootsOf(e.X)
			}
		}
	case *ast.StarExpr:
		return bw.rootsOf(e.X)
	case *ast.SliceExpr:
		return bw.rootsOf(e.X)
	case *ast.TypeAssertExpr:
		return bw.rootsOf(e.X)
	case *ast.IndexExpr:
		// recs[i] is a carrier only when the element itself is a
		// reference: a value-struct copy owns no borrowed storage.
		if refKind(info.TypeOf(e)) {
			return bw.rootsOf(e.X)
		}
	case *ast.SelectorExpr:
		if refKind(info.TypeOf(e)) {
			return bw.rootsOf(e.X)
		}
	case *ast.CallExpr:
		return bw.callResultRoots(e)
	}
	return nil
}

// callResultRoots decides whether a call's results carry a borrow: append
// and slice-of-carrier builtins propagate, and module callees propagate a
// carrier argument through parameters their summary marks returned.
func (bw *borrowWalk) callResultRoots(call *ast.CallExpr) map[*types.Var]bool {
	info := bw.fi.Pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" {
				var out map[*types.Var]bool
				for _, arg := range call.Args {
					out = unionRoots(out, bw.rootsOf(arg))
				}
				return out
			}
			return nil
		}
	}
	fn := staticCallee(info, call)
	if fn == nil {
		return nil
	}
	callee := bw.be.idx.Funcs[fn]
	if callee == nil {
		return nil
	}
	var out map[*types.Var]bool
	if callee.Borrowed["return"] {
		// Borrow transfer: the result is borrowed from whichever carriers
		// went in; with no carrier arguments the callee is lending its own
		// storage and the caller's root set is empty here (collectPoolRoots
		// introduces the new root at the assignment).
		for _, arg := range call.Args {
			out = unionRoots(out, bw.rootsOf(arg))
		}
		if recv := callRecv(call); recv != nil {
			out = unionRoots(out, bw.rootsOf(recv))
		}
	}
	sum := bw.be.summaries[callee]
	if sum != nil && len(sum.returns) > 0 {
		bw.forEachArg(call, fn, func(arg ast.Expr, param *types.Var) {
			if sum.returns[param] {
				out = unionRoots(out, bw.rootsOf(arg))
			}
		})
	}
	return out
}

func unionRoots(a, b map[*types.Var]bool) map[*types.Var]bool {
	if len(b) == 0 {
		return a
	}
	if a == nil {
		a = make(map[*types.Var]bool, len(b))
	}
	for v := range b {
		a[v] = true
	}
	return a
}

// forEachArg pairs call arguments (receiver included) with the callee's
// parameter objects, folding variadic extras onto the last parameter.
func (bw *borrowWalk) forEachArg(call *ast.CallExpr, fn *types.Func, f func(arg ast.Expr, param *types.Var)) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if recv := sig.Recv(); recv != nil {
		if rx := callRecv(call); rx != nil {
			f(rx, recv)
		}
	}
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		j := i
		if j >= params.Len() {
			j = params.Len() - 1
		}
		f(arg, params.At(j))
	}
}

// callRecv extracts the receiver expression of a method call, nil for
// plain function calls.
func callRecv(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// walk traverses the function body once. With reporting unset it only
// propagates carriers; set, it emits findings (or summary bits).
func (bw *borrowWalk) walk(reporting bool) {
	bw.reporting = reporting
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			bw.closureCapture(n)
			return false
		case *ast.GoStmt:
			bw.goStmt(n)
			return false
		case *ast.AssignStmt:
			bw.assign(n)
		case *ast.DeclStmt:
			bw.declStmt(n)
		case *ast.RangeStmt:
			bw.rangeStmt(n)
		case *ast.SendStmt:
			if roots := bw.rootsOf(n.Value); roots != nil {
				bw.escape(roots, n.Arrow, "borrowed value %s escapes: sent on a channel", exprText(n.Value))
			}
		case *ast.ReturnStmt:
			bw.returnStmt(n)
		case *ast.CallExpr:
			bw.callArgs(n)
		case *ast.CompositeLit:
			bw.compositeLit(n)
		}
		return true
	}
	ast.Inspect(bw.fi.Decl.Body, visit)
}

// escape records root escapes and, in reporting mode, emits the finding.
func (bw *borrowWalk) escape(roots map[*types.Var]bool, pos token.Pos, format string, args ...any) {
	for v := range roots {
		bw.escaped[v] = true
	}
	if bw.reporting && bw.report != nil {
		bw.report(pos, format, args...)
	}
}

func (bw *borrowWalk) assign(as *ast.AssignStmt) {
	info := bw.fi.Pkg.Info
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// Multi-value call: every reference-typed LHS inherits the call's
		// carrier set.
		roots := bw.rootsOf(as.Rhs[0])
		if roots == nil {
			return
		}
		for _, lhs := range as.Lhs {
			bw.assignTo(lhs, roots, info)
		}
		return
	}
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) {
			break
		}
		roots := bw.rootsOf(rhs)
		if roots == nil {
			continue
		}
		bw.assignTo(as.Lhs[i], roots, info)
	}
}

// assignTo handles one LHS receiving a carrier: locals propagate the
// borrow, stores into carriers of the same borrow are in-place mutation,
// everything else is an escape.
func (bw *borrowWalk) assignTo(lhs ast.Expr, roots map[*types.Var]bool, info *types.Info) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := info.Defs[l]
		if obj == nil {
			obj = info.Uses[l]
		}
		v, ok := obj.(*types.Var)
		if !ok || !refKind(v.Type()) {
			// A non-reference LHS (count, error) takes a copy or a fresh
			// value, not the borrowed storage.
			return
		}
		if v.Parent() == v.Pkg().Scope() {
			bw.escape(roots, l.Pos(), "borrowed value escapes: stored to package-level variable %s", l.Name)
			return
		}
		bw.carriers[v] = unionRoots(bw.carriers[v], roots)
	case *ast.StarExpr:
		// *p = carrier: p points somewhere; if p itself carries the same
		// borrow this is mutation, otherwise the store is out of sight.
		if bw.sameBorrow(bw.rootsOf(l.X), roots) {
			return
		}
		bw.escape(roots, l.Pos(), "borrowed value escapes: stored through pointer %s", exprText(l.X))
	case *ast.SelectorExpr:
		bw.storeInto(l.X, roots, l.Pos(), exprText(l))
	case *ast.IndexExpr:
		bw.storeInto(l.X, roots, l.Pos(), exprText(l.X)+"[...]")
	}
}

// storeInto classifies a store of a carrier into base's storage: mutation
// when base carries the same borrow, escape otherwise — in particular
// through pointer parameters, which reach the caller's heap. A store into
// a fresh local container is flagged too; proving the container never
// leaves the frame would need reaching definitions, so such a site takes a
// justified //lint:allow instead.
func (bw *borrowWalk) storeInto(base ast.Expr, roots map[*types.Var]bool, pos token.Pos, what string) {
	if bw.sameBorrow(bw.rootsOf(base), roots) {
		return
	}
	bw.escape(roots, pos, "borrowed value escapes: stored to heap-reachable %s", what)
}

// sameBorrow reports whether dst (the store target's carrier roots) shares
// a root with src (the stored value's roots) — mutating the borrowed
// object through any alias of it.
func (bw *borrowWalk) sameBorrow(dst, src map[*types.Var]bool) bool {
	for v := range src {
		if dst[v] {
			return true
		}
	}
	return false
}

func (bw *borrowWalk) declStmt(ds *ast.DeclStmt) {
	gd, ok := ds.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	info := bw.fi.Pkg.Info
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, val := range vs.Values {
			roots := bw.rootsOf(val)
			if roots == nil || i >= len(vs.Names) {
				continue
			}
			if v, ok := info.Defs[vs.Names[i]].(*types.Var); ok {
				bw.carriers[v] = unionRoots(bw.carriers[v], roots)
			}
		}
	}
}

func (bw *borrowWalk) rangeStmt(rs *ast.RangeStmt) {
	roots := bw.rootsOf(rs.X)
	if roots == nil {
		return
	}
	info := bw.fi.Pkg.Info
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok {
			continue
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok && refKind(v.Type()) {
			bw.carriers[v] = unionRoots(bw.carriers[v], roots)
		}
	}
}

func (bw *borrowWalk) returnStmt(rs *ast.ReturnStmt) {
	for _, res := range rs.Results {
		roots := bw.rootsOf(res)
		if roots == nil {
			continue
		}
		for v := range roots {
			bw.returned[v] = true
		}
		// Summary mode (report == nil) records the return separately:
		// returning a parameter hands it back, it does not retain it —
		// callers track the result as a carrier via the returns bit.
		if bw.report != nil && !bw.fi.Borrowed["return"] {
			bw.escape(roots, res.Pos(),
				"borrowed value %s escapes: returned to the caller (declare the transfer with //vet:borrowed return)",
				exprText(res))
		}
	}
}

// callArgs checks carrier arguments against the callee's summary. External
// callees are assumed non-retaining (documented optimism).
func (bw *borrowWalk) callArgs(call *ast.CallExpr) {
	info := bw.fi.Pkg.Info
	fn := staticCallee(info, call)
	if fn == nil {
		return
	}
	callee := bw.be.idx.Funcs[fn]
	if callee == nil {
		return
	}
	sum := bw.be.summaries[callee]
	if sum == nil || len(sum.escapes) == 0 {
		return
	}
	bw.forEachArg(call, fn, func(arg ast.Expr, param *types.Var) {
		roots := bw.rootsOf(arg)
		if roots == nil || !sum.escapes[param] {
			return
		}
		bw.escape(roots, arg.Pos(),
			"borrowed value %s escapes into %s: the callee retains parameter %s",
			exprText(arg), callee.Name(), param.Name())
	})
}

func (bw *borrowWalk) compositeLit(cl *ast.CompositeLit) {
	for _, elt := range cl.Elts {
		val := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			val = kv.Value
		}
		if roots := bw.rootsOf(val); roots != nil {
			bw.escape(roots, val.Pos(), "borrowed value %s escapes: stored into a composite literal", exprText(val))
		}
	}
}

// closureCapture flags borrowed variables referenced inside a function
// literal: the closure may run after the borrow ends.
func (bw *borrowWalk) closureCapture(lit *ast.FuncLit) {
	info := bw.fi.Pkg.Info
	seen := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || seen[v] {
			return true
		}
		if roots := bw.carriers[v]; roots != nil {
			seen[v] = true
			bw.escape(roots, id.Pos(), "borrowed value %s escapes: captured by a closure", id.Name)
		}
		return true
	})
}

// goStmt flags carriers handed to a goroutine — by argument or by closure
// capture — regardless of what the goroutine does with them: the borrow's
// end is no longer ordered with the use.
func (bw *borrowWalk) goStmt(gs *ast.GoStmt) {
	for _, arg := range gs.Call.Args {
		if roots := bw.rootsOf(arg); roots != nil {
			bw.escape(roots, arg.Pos(), "borrowed value %s escapes: handed to a goroutine", exprText(arg))
		}
	}
	if recv := callRecv(gs.Call); recv != nil {
		if roots := bw.rootsOf(recv); roots != nil {
			bw.escape(roots, recv.Pos(), "borrowed value %s escapes: handed to a goroutine", exprText(recv))
		}
	}
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		bw.closureCapture(lit)
	}
}

// refKind reports whether t can reference storage it does not own. The
// universe error type is excluded: a multi-value `batch, err := read(...)`
// from a borrowed-return callee lends the batch, not the error — errors
// describe failures, they do not carry buffers.
func refKind(t types.Type) bool {
	if t == nil {
		return false
	}
	if named, ok := t.(*types.Named); ok {
		if obj := named.Obj(); obj.Pkg() == nil && obj.Name() == "error" {
			return false
		}
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// checkUseAfterPut runs the definitely-returned-to-pool must-analysis over
// fi's CFG: a use of a pool borrow is reported only when every path to it
// passes sync.Pool.Put of that variable (re-binding the variable clears the
// state, as does a loop back-edge from before the Put).
func (be *borrowEngine) checkUseAfterPut(p *ModulePass, fi *FuncInfo, pool map[*types.Var]bool) {
	cfg := fi.CFG()
	info := fi.Pkg.Info

	// transfer applies one block; when report is set it emits findings
	// against the incoming must-put state.
	transfer := func(blk *Block, st map[*types.Var]bool, report bool) map[*types.Var]bool {
		for _, n := range blk.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				// defer pool.Put(sc) runs at return; it never precedes a
				// use in source order within the function body.
				continue
			}
			inspectShallow(n, func(c ast.Node) bool {
				switch c := c.(type) {
				case *ast.Ident:
					v, ok := info.Uses[c].(*types.Var)
					if ok && pool[v] && st[v] && report {
						p.Reportf(fi.Pkg, c.Pos(),
							"use of %s after sync.Pool.Put returned it to the pool", c.Name)
					}
				case *ast.CallExpr:
					if fn := staticCallee(info, c); fn != nil && fn.Name() == "Put" && funcPathName(fn) == "sync.Put" {
						for _, arg := range c.Args {
							if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
								if v, ok := info.Uses[id].(*types.Var); ok && pool[v] {
									st[v] = true
								}
							}
						}
						// Don't descend: the Put's own argument is the
						// borrow's return, not a use after it.
						return false
					}
				case *ast.AssignStmt:
					for _, lhs := range c.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							if v, ok := objOf(info, id).(*types.Var); ok {
								delete(st, v)
							}
						}
					}
				}
				return true
			})
		}
		return st
	}

	// Must-analysis: meet is intersection; unvisited predecessors are TOP
	// (nil) and drop out of the meet.
	out := make([]map[*types.Var]bool, len(cfg.Blocks))
	in := make([]map[*types.Var]bool, len(cfg.Blocks))
	for changed := true; changed; {
		changed = false
		for _, blk := range cfg.Blocks {
			var st map[*types.Var]bool
			if blk == cfg.Entry {
				st = make(map[*types.Var]bool)
			} else {
				for _, pr := range blk.Preds {
					if out[pr.Index] == nil {
						continue // TOP: identity for intersection
					}
					if st == nil {
						st = copyVarSet(out[pr.Index])
						continue
					}
					for v := range st {
						if !out[pr.Index][v] {
							delete(st, v)
						}
					}
				}
				if st == nil {
					st = make(map[*types.Var]bool)
				}
			}
			in[blk.Index] = st
			next := transfer(blk, copyVarSet(st), false)
			if !sameVarSet(out[blk.Index], next) {
				out[blk.Index] = next
				changed = true
			}
		}
	}
	sortedBlocks := make([]*Block, len(cfg.Blocks))
	copy(sortedBlocks, cfg.Blocks)
	sort.Slice(sortedBlocks, func(i, j int) bool { return sortedBlocks[i].Index < sortedBlocks[j].Index })
	for _, blk := range sortedBlocks {
		transfer(blk, copyVarSet(in[blk.Index]), true)
	}
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

func copyVarSet(s map[*types.Var]bool) map[*types.Var]bool {
	c := make(map[*types.Var]bool, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func sameVarSet(a, b map[*types.Var]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
