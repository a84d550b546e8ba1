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
// same two locks in opposite orders — plus every operation that may block
// while a lock is held: channel sends and receives, selects without a
// default case, known-blocking stdlib calls (WaitGroup.Wait, Cond.Wait,
// time.Sleep), invocations of function-typed struct fields (callbacks,
// whose bodies the lock holder does not control), calls into the consumer
// bus's blocking surface (Bus.Drain, Bus.Close), and calls to module
// functions that transitively do any of those. The last is the engine's
// classic deadlock: a window callback invoked under the engine lock that
// calls back into the engine (Go mutexes are not reentrant).
//
// A lock's identity is its declaration site, not its instance: every
// Engine.mu is one node, every engineShard.mu another. Edges A -> B mean
// "some path acquires B while A is held", found by tracking may-held lock
// sets across each function's CFG and extending them through the static
// call graph with per-function acquisition and may-block summaries, so a
// lock taken in core and a lock taken three calls away in telemetry still
// order against each other. RLock counts as an acquisition: a read lock
// deadlocks against a waiting writer just as hard.
//
// Known optimism: calls through function values and interfaces are not
// followed (the callback check and busconsumer own those shapes), and a
// function-local mutex only takes part in the blocking check — ordering is
// only meaningful for locks that outlive a call.
func Lockorder() *Analyzer {
	a := &Analyzer{
		Name: "lockorder",
		Doc:  "derive the inter-procedural mutex acquisition graph; flag cycles and blocking operations made while a lock is held",
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

// blockOp is one operation that may block the goroutine running it.
type blockOp struct {
	pos  token.Pos
	what string // the finding's subject: "channel send"
	desc string // the same as a summary clause: "sends on a channel"
	why  string // appended to the finding
}

type lockorderPass struct {
	*ModulePass
	// acquires maps each function to the lock IDs it may take,
	// transitively through module callees.
	acquires map[*FuncInfo]map[string]bool
	// blocks maps each function that may block, directly or through
	// module callees, to why: "calls emit, which invokes the OnComplete
	// callback".
	blocks map[*FuncInfo]string
	// comms maps each select clause's channel operation to its select.
	comms  map[ast.Node]*ast.SelectStmt
	labels map[string]string // lock ID -> short diagnostic label
	local  map[string]bool   // function-local lock IDs: held, never ordered
	edges  map[[2]string]*lockEdge
}

func runLockorder(p *ModulePass) {
	lp := &lockorderPass{
		ModulePass: p,
		acquires:   make(map[*FuncInfo]map[string]bool),
		blocks:     make(map[*FuncInfo]string),
		comms:      make(map[ast.Node]*ast.SelectStmt),
		labels:     make(map[string]string),
		local:      make(map[string]bool),
		edges:      make(map[[2]string]*lockEdge),
	}
	lp.summarize()
	for _, fi := range p.Index.FuncsInOrder() {
		lp.scanFunc(fi)
	}
	lp.reportCycles()
}

// summarize computes, in one fixed point over the call graph, every
// function's transitive may-acquire set and may-block reason. A reason
// follows the shortest call chain to a blocking operation; among equally
// short chains, the callee declared first.
func (lp *lockorderPass) summarize() {
	funcs := lp.Index.FuncsInOrder()
	for _, fi := range funcs {
		set := make(map[string]bool)
		for _, cs := range fi.Calls {
			if id, method := lp.mutexOp(fi, cs.Call); id != "" && isAcquire(method) && !lp.local[id] {
				set[id] = true
			}
		}
		lp.acquires[fi] = set
		lp.blocks[fi] = lp.firstBlock(fi)
	}
	for changed := true; changed; {
		changed = false
		via := make(map[*FuncInfo]*FuncInfo) // newly blocking function -> callee
		for _, fi := range funcs {
			set := lp.acquires[fi]
			for _, cs := range fi.Calls {
				callee := lp.Index.Funcs[cs.Callee]
				if callee == nil {
					continue
				}
				for id := range lp.acquires[callee] {
					if !set[id] {
						set[id] = true
						changed = true
					}
				}
				if lp.blocks[fi] == "" && lp.blocks[callee] != "" &&
					(via[fi] == nil || declaredBefore(callee, via[fi])) {
					via[fi] = callee
				}
			}
		}
		for fi, callee := range via {
			lp.blocks[fi] = "calls " + callee.Fn.Name() + ", which " + lp.blocks[callee]
			changed = true
		}
	}
}

func isAcquire(method string) bool {
	switch method {
	case "Lock", "RLock", "TryLock", "TryRLock":
		return true
	}
	return false
}

// firstBlock describes the first operation in fi's own body, in source
// order, that may block ("" when none does), and registers the body's
// select clauses on the way. Function literals are skipped: their bodies
// run later, typically on another goroutine.
func (lp *lockorderPass) firstBlock(fi *FuncInfo) string {
	var first string
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			for _, c := range n.Body.List {
				if comm := c.(*ast.CommClause).Comm; comm != nil {
					lp.comms[commOp(comm)] = n
				}
			}
		}
		if op, ok := lp.blockingOp(fi, n); ok && first == "" {
			first = op.desc
		}
		return true
	})
	return first
}

// blockingOp classifies n when it may block the goroutine running it.
func (lp *lockorderPass) blockingOp(fi *FuncInfo, n ast.Node) (blockOp, bool) {
	switch n := n.(type) {
	case *ast.SendStmt:
		return lp.chanOp(n, blockOp{pos: n.Pos(), what: "channel send", desc: "sends on a channel"})
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return lp.chanOp(n, blockOp{pos: n.Pos(), what: "channel receive", desc: "receives from a channel"})
		}
	case *ast.CallExpr:
		return blockingCall(fi.Pkg.Info, n)
	}
	return blockOp{}, false
}

// chanOp judges a channel operation: on its own it blocks; as a select
// clause it belongs to its select, which is judged once, at its first
// clause, and blocks only without a default case.
func (lp *lockorderPass) chanOp(n ast.Node, op blockOp) (blockOp, bool) {
	sel := lp.comms[n]
	if sel == nil {
		return op, true
	}
	if commOp(sel.Body.List[0].(*ast.CommClause).Comm) != n {
		return blockOp{}, false
	}
	for _, c := range sel.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return blockOp{}, false
		}
	}
	return blockOp{pos: sel.Pos(), what: "blocking select", desc: "selects without a default case"}, true
}

// commOp returns the channel operation of a select clause's statement: the
// send itself, or the receive expression.
func commOp(comm ast.Stmt) ast.Node {
	switch s := comm.(type) {
	case *ast.ExprStmt:
		return ast.Unparen(s.X)
	case *ast.AssignStmt:
		return ast.Unparen(s.Rhs[0])
	}
	return comm
}

// blockingCall matches the calls that block by themselves: a callback
// stored in a struct field, the stdlib waits (WaitGroup.Wait and Cond.Wait
// both resolve to sync.Wait), and Drain and Close on a named type Bus —
// the consumer bus's blocking surface. Bus matching is name-based, like
// busconsumer's, so the golden testdata exercises the real code path.
func blockingCall(info *types.Info, call *ast.CallExpr) (blockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return blockOp{}, false
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if _, isFunc := s.Type().Underlying().(*types.Signature); isFunc {
			what := "invokes the " + sel.Sel.Name + " callback"
			return blockOp{pos: call.Pos(), what: what, desc: what}, true
		}
	}
	switch name := funcPathName(staticCallee(info, sel)); name {
	case "sync.Wait", "time.Sleep":
		return blockOp{pos: call.Pos(), what: "calls " + name, desc: "calls " + name}, true
	}
	if sel.Sel.Name == "Drain" || sel.Sel.Name == "Close" {
		if named := namedTypeOf(info.TypeOf(sel.X)); named != nil && named.Obj().Name() == "Bus" {
			return blockOp{
				pos:  call.Pos(),
				what: "call into the consumer bus (Bus." + sel.Sel.Name + ")",
				desc: "calls Bus." + sel.Sel.Name,
				why:  ": draining blocks on consumer progress, and a consumer may need that lock",
			}, true
		}
	}
	return blockOp{}, false
}

// scanFunc runs the may-held dataflow over fi's CFG and collects
// acquisition-order edges and blocking findings.
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
			// out of scope.
			continue
		case *ast.GoStmt:
			// The spawned goroutine does not inherit the caller's locks.
			continue
		}
		inspectShallow(n, func(c ast.Node) bool {
			call, isCall := c.(*ast.CallExpr)
			if isCall {
				if id, method := lp.mutexOp(fi, call); id != "" {
					switch {
					case isAcquire(method):
						if report {
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
			}
			if !report || len(held) == 0 {
				return true
			}
			op, blocking := lp.blockingOp(fi, c)
			var callee *FuncInfo
			if isCall {
				callee = lp.Index.Funcs[staticCallee(fi.Pkg.Info, call.Fun)]
			}
			if !blocking && callee != nil && lp.blocks[callee] != "" {
				name := callee.Fn.Name()
				op = blockOp{pos: call.Pos(), what: "call to " + name, why: ": " + name + " " + lp.blocks[callee]}
				blocking = true
			}
			if blocking {
				lp.Reportf(fi.Pkg, op.pos, "%s while %s is held%s", op.what, joinHeld(held, lp.labels), op.why)
			}
			if callee != nil {
				for id := range lp.acquires[callee] {
					for from := range held {
						lp.edge(from, id, fi.Pkg, call.Pos())
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
	if _, ok := lp.edges[key]; ok || lp.local[from] || lp.local[to] {
		return
	}
	lp.edges[key] = &lockEdge{from: from, to: to, pkg: pkg, pos: pos}
}

// mutexOp classifies call as a sync.Mutex/RWMutex Lock-family method and
// returns the lock's identity.
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
		return lp.lockIdentity(fi, sel.X), fn.Name()
	}
	return "", ""
}

// lockIdentity names the lock a method-call receiver denotes: a struct
// field as owner-type.field, a package-level var as pkg.var. Any other
// receiver — a function-local mutex, one embedded in a parameter — is a
// lock of this function alone, named by its source text: it is held for
// the blocking check but orders against nothing across calls.
func (lp *lockorderPass) lockIdentity(fi *FuncInfo, expr ast.Expr) string {
	info := fi.Pkg.Info
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		// x.mu — the field's owner type qualifies it.
		obj, ok := info.Uses[e.Sel].(*types.Var)
		if owner := namedTypeOf(info.TypeOf(e.X)); ok && obj.IsField() && owner != nil {
			id := typeID(owner) + "." + obj.Name()
			lp.labels[id] = owner.Obj().Name() + "." + obj.Name()
			return id
		}
	case *ast.Ident:
		obj, ok := info.Uses[e].(*types.Var)
		if ok && !obj.IsField() && obj.Parent() == obj.Pkg().Scope() {
			id := obj.Pkg().Path() + "." + obj.Name()
			lp.labels[id] = obj.Pkg().Name() + "." + obj.Name()
			return id
		}
	}
	label := types.ExprString(expr)
	id := "local " + label
	lp.labels[id] = label
	lp.local[id] = true
	return id
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
