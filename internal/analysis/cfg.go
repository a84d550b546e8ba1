package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// cfg.go hand-rolls per-function control-flow graphs over go/ast — no
// golang.org/x dependency, per the module's stdlib-only rule. A CFG is a
// list of basic blocks holding statement-level nodes in execution order;
// nested statements (loop bodies, branch arms) live in their own blocks,
// so a node never contains another block's statements. Function literals
// are opaque single nodes: their bodies execute later, usually on another
// goroutine, and each analyzer decides how to treat them.
//
// The builder covers the full statement language used in this module:
// if/else chains, for and range loops, expression and type switches
// (including fallthrough), select, labeled break/continue, goto, return,
// and defer (kept as an ordinary node — analyses that care about defer
// semantics, like lock tracking, special-case it). Panics and os.Exit are
// not modeled as terminators; the fallthrough edge they leave behind only
// makes downstream analyses more conservative.

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Entry is the first executed block; Exit is the single synthetic
	// block every return (and the final fallthrough) feeds.
	Entry  *Block
	Exit   *Block
	Blocks []*Block // all blocks, Entry first, Exit last
}

// Block is one basic block: straight-line nodes with branching only at the
// end, expressed as successor edges.
type Block struct {
	Index int
	// Nodes holds the block's statements and branch conditions in
	// execution order. Conditions appear as bare ast.Expr entries.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// addSucc wires b -> s once.
func (b *Block) addSucc(s *Block) {
	for _, have := range b.Succs {
		if have == s {
			return
		}
	}
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

// cfgBuilder carries the under-construction graph plus the branch-target
// stacks for break/continue/fallthrough and the label table for goto.
type cfgBuilder struct {
	cfg *CFG
	// cur is the block receiving new nodes; nil after a terminator
	// (return, break, goto) until the next reachable point opens a block.
	cur *Block

	// frames is the stack of enclosing breakable/continuable constructs.
	frames []cfgFrame

	labels map[string]*Block   // label -> target block (for goto)
	gotos  map[string][]*Block // unresolved goto sources per label
}

// cfgFrame is one enclosing loop, switch or select on the builder stack.
type cfgFrame struct {
	label    string // the construct's label, "" when unlabeled
	isLoop   bool   // loops accept continue; switches/selects only break
	brk      *Block
	cont     *Block // nil for non-loops
	nextCase *Block // fallthrough target inside a switch
}

// BuildCFG constructs the CFG for one function body. It never fails: the
// parser already guaranteed structural sanity, and unresolved labels
// simply leave their goto blocks without that successor.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: make(map[string]*Block),
		gotos:  make(map[string][]*Block),
	}
	entry := b.newBlock()
	b.cfg.Entry = entry
	b.cur = entry
	b.stmtList(body.List)
	exit := b.newBlock()
	b.cfg.Exit = exit
	if b.cur != nil {
		b.cur.addSucc(exit)
	}
	// Wire every return recorded as a pending exit edge.
	for _, blk := range b.cfg.Blocks {
		if blk != exit && len(blk.Nodes) > 0 {
			if _, ok := blk.Nodes[len(blk.Nodes)-1].(*ast.ReturnStmt); ok {
				blk.addSucc(exit)
			}
		}
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// ensure returns the current block, opening a fresh unreachable one after
// a terminator so dead code is still held somewhere analyzable.
func (b *cfgBuilder) ensure() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	blk := b.ensure()
	blk.Nodes = append(blk.Nodes, n)
}

// startBlock opens succ as the new current block, linking from cur.
func (b *cfgBuilder) startBlock(succ *Block) {
	if b.cur != nil {
		b.cur.addSucc(succ)
	}
	b.cur = succ
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt folds one statement into the graph. label is the statement's label
// when it came through a LabeledStmt.
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The label is both a goto target and, for loops/switches, the
		// name of the break/continue frame.
		target := b.newBlock()
		b.startBlock(target)
		b.labels[s.Label.Name] = target
		for _, src := range b.gotos[s.Label.Name] {
			src.addSucc(target)
		}
		delete(b.gotos, s.Label.Name)
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		condBlk := b.ensure()
		join := b.newBlock()
		then := b.newBlock()
		condBlk.addSucc(then)
		b.cur = then
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.cur.addSucc(join)
		}
		if s.Else != nil {
			els := b.newBlock()
			condBlk.addSucc(els)
			b.cur = els
			b.stmt(s.Else, "")
			if b.cur != nil {
				b.cur.addSucc(join)
			}
		} else {
			condBlk.addSucc(join)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		b.startBlock(head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		body := b.newBlock()
		exit := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			post.addSucc(head)
		}
		head.addSucc(body)
		if s.Cond != nil {
			head.addSucc(exit)
		}
		b.frames = append(b.frames, cfgFrame{label: label, isLoop: true, brk: exit, cont: post})
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.cur.addSucc(post)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = exit

	case *ast.RangeStmt:
		head := b.newBlock()
		b.startBlock(head)
		head.Nodes = append(head.Nodes, s) // the range clause itself: X use, Key/Value defs
		body := b.newBlock()
		exit := b.newBlock()
		head.addSucc(body)
		head.addSucc(exit)
		b.frames = append(b.frames, cfgFrame{label: label, isLoop: true, brk: exit, cont: head})
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.cur.addSucc(head)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = exit

	case *ast.SwitchStmt:
		b.switchStmt(label, s.Init, s.Tag, nil, s.Body)

	case *ast.TypeSwitchStmt:
		b.switchStmt(label, s.Init, nil, s.Assign, s.Body)

	case *ast.SelectStmt:
		head := b.ensure()
		join := b.newBlock()
		b.frames = append(b.frames, cfgFrame{label: label, brk: join})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			caseBlk := b.newBlock()
			head.addSucc(caseBlk)
			b.cur = caseBlk
			if cc.Comm != nil {
				caseBlk.Nodes = append(caseBlk.Nodes, cc.Comm)
			}
			b.stmtList(cc.Body)
			if b.cur != nil {
				b.cur.addSucc(join)
			}
		}
		b.frames = b.frames[:len(b.frames)-1]
		if len(s.Body.List) == 0 {
			head.addSucc(join) // select{} blocks forever; keep the graph connected
		}
		b.cur = join

	case *ast.ReturnStmt:
		b.add(s)
		b.cur = nil // BuildCFG wires the exit edge afterwards

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if t := b.findFrame(s.Label, false); t != nil {
				b.ensure().addSucc(t.brk)
			}
			b.cur = nil
		case token.CONTINUE:
			if t := b.findFrame(s.Label, true); t != nil && t.cont != nil {
				b.ensure().addSucc(t.cont)
			}
			b.cur = nil
		case token.GOTO:
			name := s.Label.Name
			if target, ok := b.labels[name]; ok {
				b.ensure().addSucc(target)
			} else {
				b.gotos[name] = append(b.gotos[name], b.ensure())
			}
			b.cur = nil
		case token.FALLTHROUGH:
			if len(b.frames) > 0 {
				if t := b.frames[len(b.frames)-1]; t.nextCase != nil {
					b.ensure().addSucc(t.nextCase)
				}
			}
			b.cur = nil
		}

	default:
		// Assign, decl, expr, send, inc/dec, go, defer, empty: straight
		// line.
		if _, ok := s.(*ast.EmptyStmt); ok {
			return
		}
		b.add(s)
	}
}

// switchStmt builds both switch flavors: head with init/tag (or the type
// switch assign), one block per case, optional fallthrough chaining, and a
// default-less fallthrough edge to the join.
func (b *cfgBuilder) switchStmt(label string, init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	head := b.ensure()
	join := b.newBlock()

	// Pre-create case blocks so fallthrough can point at its successor.
	var clauses []*ast.CaseClause
	var caseBlks []*Block
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		clauses = append(clauses, cc)
		caseBlks = append(caseBlks, b.newBlock())
		if cc.List == nil {
			hasDefault = true
		}
	}
	for i, cc := range clauses {
		caseBlk := caseBlks[i]
		head.addSucc(caseBlk)
		for _, e := range cc.List {
			caseBlk.Nodes = append(caseBlk.Nodes, e)
		}
		var next *Block
		if i+1 < len(caseBlks) {
			next = caseBlks[i+1]
		}
		b.frames = append(b.frames, cfgFrame{label: label, brk: join, nextCase: next})
		b.cur = caseBlk
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.cur.addSucc(join)
		}
		b.frames = b.frames[:len(b.frames)-1]
	}
	if !hasDefault {
		head.addSucc(join)
	}
	b.cur = join
}

// findFrame resolves a break (wantLoop=false) or continue (true) target.
func (b *cfgBuilder) findFrame(label *ast.Ident, wantLoop bool) *cfgFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if wantLoop && !f.isLoop {
			continue
		}
		if label == nil || f.label == label.Name {
			return f
		}
	}
	return nil
}

// String renders the graph for tests and debugging: one line per block
// with its successor indices.
func (c *CFG) String() string {
	var sb strings.Builder
	for _, blk := range c.Blocks {
		fmt.Fprintf(&sb, "b%d:", blk.Index)
		for _, s := range blk.Succs {
			fmt.Fprintf(&sb, " ->b%d", s.Index)
		}
		fmt.Fprintf(&sb, " (%d nodes)\n", len(blk.Nodes))
	}
	return sb.String()
}

// inspectShallow walks n like ast.Inspect but does not descend into nested
// statement blocks or function literals — exactly the parts of a CFG node
// that belong to other blocks (a RangeStmt node carries its body; go and
// defer carry closures).
func inspectShallow(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c.(type) {
		case *ast.BlockStmt:
			if c != n {
				return false
			}
		case *ast.FuncLit:
			return false
		}
		return f(c)
	})
}
