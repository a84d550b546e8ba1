package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Lockorder derives the module's mutex acquisition graph and reports
// cycles in it — the deadlock shape two goroutines produce by taking the
// same two locks in opposite orders — plus calls into the consumer bus's
// blocking surface (Bus.Drain, Bus.Close) made while any lock is held.
//
// A lock's identity is its declaration site, not its instance: every
// Engine.mu is one node, every engineShard.mu another. Edges A -> B mean
// "some path acquires B while A is held", found by tracking may-held lock
// sets across each function's CFG and extending them through the static
// call graph with per-function acquisition summaries, so a lock taken in
// core and a lock taken three calls away in telemetry still order against
// each other. RLock counts as an acquisition: a read lock deadlocks
// against a waiting writer just as hard.
//
// Known optimism: calls through function values and interfaces are not
// followed (lockscope and busconsumer own the callback-under-lock shapes),
// and function-local mutexes are skipped — ordering is only meaningful for
// locks that outlive a call.
func Lockorder() *Analyzer {
	a := &Analyzer{
		Name: "lockorder",
		Doc:  "derive the inter-procedural mutex acquisition graph; flag cycles and lock-held calls into the consumer bus",
	}
	a.RunModule = runLockorder
	return a
}

// lockEdge is one acquisition-order edge with its first witness site.
type lockEdge struct {
	from, to string
	pkg      *Package
	pos      token.Pos
}

type lockorderPass struct {
	*ModulePass
	// acquires maps each function to the lock IDs it may take,
	// transitively through module callees.
	acquires map[*FuncInfo]map[string]bool
	labels   map[string]string // lock ID -> short diagnostic label
	edges    map[[2]string]*lockEdge
}

func runLockorder(p *ModulePass) {
	lp := &lockorderPass{
		ModulePass: p,
		acquires:   make(map[*FuncInfo]map[string]bool),
		labels:     make(map[string]string),
		edges:      make(map[[2]string]*lockEdge),
	}
	lp.summarize()
	for _, fi := range p.Index.FuncsInOrder() {
		lp.scanFunc(fi)
	}
	lp.reportCycles()
}

// summarize computes the transitive may-acquire set of every function.
func (lp *lockorderPass) summarize() {
	funcs := lp.Index.FuncsInOrder()
	for _, fi := range funcs {
		set := make(map[string]bool)
		for _, cs := range fi.Calls {
			if id, method := lp.mutexOp(fi, cs.Call); id != "" && isAcquire(method) {
				set[id] = true
			}
		}
		lp.acquires[fi] = set
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			set := lp.acquires[fi]
			for _, cs := range fi.Calls {
				callee := lp.calleeInfo(cs)
				if callee == nil {
					continue
				}
				for id := range lp.acquires[callee] {
					if !set[id] {
						set[id] = true
						changed = true
					}
				}
			}
		}
	}
}

func (lp *lockorderPass) calleeInfo(cs CallSite) *FuncInfo {
	if cs.Callee == nil {
		return nil
	}
	return lp.Index.Funcs[cs.Callee]
}

func isAcquire(method string) bool {
	switch method {
	case "Lock", "RLock", "TryLock", "TryRLock":
		return true
	}
	return false
}

// scanFunc runs the may-held dataflow over fi's CFG and collects
// acquisition-order edges and bus-blocking findings.
func (lp *lockorderPass) scanFunc(fi *FuncInfo) {
	cfg := fi.CFG()
	in := make([]map[string]bool, len(cfg.Blocks))
	out := make([]map[string]bool, len(cfg.Blocks))
	for changed := true; changed; {
		changed = false
		for _, blk := range cfg.Blocks {
			st := make(map[string]bool)
			for _, p := range blk.Preds {
				for id := range out[p.Index] {
					st[id] = true
				}
			}
			in[blk.Index] = st
			next := lp.transferBlock(fi, blk, copySet(st), false)
			if !sameSet(out[blk.Index], next) {
				out[blk.Index] = next
				changed = true
			}
		}
	}
	for _, blk := range cfg.Blocks {
		lp.transferBlock(fi, blk, copySet(in[blk.Index]), true)
	}
}

// transferBlock applies one block's lock operations to held, recording
// edges and findings when report is set.
func (lp *lockorderPass) transferBlock(fi *FuncInfo, blk *Block, held map[string]bool, report bool) map[string]bool {
	for _, n := range blk.Nodes {
		switch n.(type) {
		case *ast.DeferStmt:
			// A deferred Unlock keeps the lock held through the rest of
			// the function; a deferred anything-else runs at return and is
			// out of acquisition-order scope.
			continue
		case *ast.GoStmt:
			// The spawned goroutine does not inherit the caller's locks.
			continue
		}
		inspectShallow(n, func(c ast.Node) bool {
			call, ok := c.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, method := lp.mutexOp(fi, call); id != "" {
				switch {
				case isAcquire(method):
					if report && len(held) > 0 {
						for from := range held {
							lp.edge(from, id, fi.Pkg, call.Pos())
						}
					}
					held[id] = true
				case method == "Unlock" || method == "RUnlock":
					delete(held, id)
				}
				return true
			}
			if len(held) > 0 && report {
				if busCall := busBlockingCall(fi.Pkg.Info, call); busCall != "" {
					lp.Reportf(fi.Pkg, call.Pos(),
						"call into the consumer bus (%s) while %s is held: draining blocks on consumer progress, and a consumer may need that lock",
						busCall, joinHeld(held, lp.labels))
				}
			}
			if callee := lp.calleeInfo(CallSite{Callee: staticCallee(fi.Pkg.Info, call)}); callee != nil {
				if len(held) > 0 {
					var ids []string
					for id := range lp.acquires[callee] {
						ids = append(ids, id)
					}
					sort.Strings(ids)
					for _, id := range ids {
						if report {
							for from := range held {
								lp.edge(from, id, fi.Pkg, call.Pos())
							}
						}
					}
				}
			}
			return true
		})
	}
	return held
}

// edge records the first witness of from -> to.
func (lp *lockorderPass) edge(from, to string, pkg *Package, pos token.Pos) {
	key := [2]string{from, to}
	if _, ok := lp.edges[key]; ok {
		return
	}
	lp.edges[key] = &lockEdge{from: from, to: to, pkg: pkg, pos: pos}
}

// mutexOp classifies call as a sync.Mutex/RWMutex Lock-family method and
// returns the lock's declaration identity.
func (lp *lockorderPass) mutexOp(fi *FuncInfo, call *ast.CallExpr) (id, method string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := fi.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", ""
	}
	id = lp.lockIdentity(fi, sel.X)
	if id == "" {
		return "", ""
	}
	return id, fn.Name()
}

// lockIdentity names the lock a method-call receiver denotes: a struct
// field as owner-type.field, a package-level var as pkg.var, an embedded
// mutex as the embedding type. Function-local mutexes return "".
func (lp *lockorderPass) lockIdentity(fi *FuncInfo, expr ast.Expr) string {
	info := fi.Pkg.Info
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		// x.mu — the field's owner type qualifies it.
		obj, ok := info.Uses[e.Sel].(*types.Var)
		if !ok || !obj.IsField() {
			return ""
		}
		owner := namedTypeOf(info.TypeOf(e.X))
		if owner == nil {
			return ""
		}
		id := typeID(owner) + "." + obj.Name()
		lp.labels[id] = owner.Obj().Name() + "." + obj.Name()
		return id
	case *ast.Ident:
		obj, ok := info.Uses[e].(*types.Var)
		if !ok {
			return ""
		}
		if obj.IsField() {
			// Embedded mutex promoted to the enclosing literal scope.
			return ""
		}
		if obj.Parent() == obj.Pkg().Scope() {
			id := obj.Pkg().Path() + "." + obj.Name()
			lp.labels[id] = obj.Pkg().Name() + "." + obj.Name()
			return id
		}
		return "" // function-local lock: no cross-call ordering
	}
	return ""
}

func namedTypeOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func typeID(n *types.Named) string {
	if n.Obj().Pkg() == nil {
		return n.Obj().Name()
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// busBlockingCall matches Drain and Close methods on a named type Bus —
// the consumer bus's blocking surface. Matching is name-based, like
// busconsumer's, so the golden testdata exercises the real code path.
func busBlockingCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if sel.Sel.Name != "Drain" && sel.Sel.Name != "Close" {
		return ""
	}
	named := namedTypeOf(info.TypeOf(sel.X))
	if named == nil || named.Obj().Name() != "Bus" {
		return ""
	}
	return "Bus." + sel.Sel.Name
}

// reportCycles finds every acquisition edge that lies on a cycle and
// reports it at its witness, so each inverted pair surfaces at both sites.
func (lp *lockorderPass) reportCycles() {
	adj := make(map[string][]string)
	for key := range lp.edges {
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	for _, succs := range adj {
		sort.Strings(succs)
	}
	keys := make([][2]string, 0, len(lp.edges))
	for key := range lp.edges {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		e := lp.edges[key]
		if e.from == e.to {
			lp.Reportf(e.pkg, e.pos,
				"lock-order hazard: %s acquired while an instance of it is already held (self-deadlock on the same instance, unordered across instances)",
				lp.label(e.to))
			continue
		}
		if path := lp.pathBetween(adj, e.to, e.from); path != nil {
			cycle := make([]string, 0, len(path)+1)
			cycle = append(cycle, lp.label(e.from))
			for _, id := range path {
				cycle = append(cycle, lp.label(id))
			}
			cycle = append(cycle, lp.label(e.from))
			lp.Reportf(e.pkg, e.pos,
				"lock-order cycle: %s acquired while %s is held, but the reverse order exists (%s)",
				lp.label(e.to), lp.label(e.from), strings.Join(cycle, " -> "))
		}
	}
}

func (lp *lockorderPass) label(id string) string {
	if l := lp.labels[id]; l != "" {
		return l
	}
	return id
}

// pathBetween returns the node sequence from "from" to "to" (inclusive of
// both) over adj, or nil when unreachable.
func (lp *lockorderPass) pathBetween(adj map[string][]string, from, to string) []string {
	prev := map[string]string{from: from}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == to {
			var path []string
			for n := to; ; n = prev[n] {
				path = append([]string{n}, path...)
				if n == from {
					return path
				}
			}
		}
		for _, next := range adj[cur] {
			if _, seen := prev[next]; !seen {
				prev[next] = cur
				queue = append(queue, next)
			}
		}
	}
	return nil
}

func copySet(s map[string]bool) map[string]bool {
	c := make(map[string]bool, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func sameSet(a, b map[string]bool) bool {
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

func joinHeld(held map[string]bool, labels map[string]string) string {
	names := make([]string, 0, len(held))
	for id := range held {
		if l := labels[id]; l != "" {
			names = append(names, l)
		} else {
			names = append(names, id)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
