package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// parseBody parses a function body for CFG construction (no types needed).
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return file.Decls[0].(*ast.FuncDecl).Body
}

// reachable walks successor edges from the entry.
func reachable(c *CFG) map[*Block]bool {
	seen := make(map[*Block]bool)
	var visit func(b *Block)
	visit = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			visit(s)
		}
	}
	visit(c.Entry)
	return seen
}

func TestCFGStraightLine(t *testing.T) {
	c := BuildCFG(parseBody(t, "x := 1\ny := x\n_ = y"))
	if len(c.Entry.Nodes) != 3 {
		t.Fatalf("entry nodes = %d, want 3\n%s", len(c.Entry.Nodes), c)
	}
	if !reachable(c)[c.Exit] {
		t.Fatalf("exit unreachable\n%s", c)
	}
}

func TestCFGIfElseJoins(t *testing.T) {
	c := BuildCFG(parseBody(t, `
x := 1
if x > 0 {
	x = 2
} else {
	x = 3
}
_ = x`))
	// The condition block must branch two ways, and both arms must reach
	// the exit through the join.
	var cond *Block
	for _, b := range c.Blocks {
		if len(b.Succs) == 2 {
			cond = b
			break
		}
	}
	if cond == nil {
		t.Fatalf("no two-way branch block\n%s", c)
	}
	if !reachable(c)[c.Exit] {
		t.Fatalf("exit unreachable\n%s", c)
	}
}

func TestCFGForLoopBackEdge(t *testing.T) {
	c := BuildCFG(parseBody(t, `
for i := 0; i < 10; i++ {
	_ = i
}`))
	// Some block must have a successor with a lower index: the back edge.
	hasBack := false
	for _, b := range c.Blocks {
		for _, s := range b.Succs {
			if s.Index < b.Index {
				hasBack = true
			}
		}
	}
	if !hasBack {
		t.Fatalf("no back edge\n%s", c)
	}
	if !reachable(c)[c.Exit] {
		t.Fatalf("exit unreachable\n%s", c)
	}
}

func TestCFGRangeNodeIsShallow(t *testing.T) {
	c := BuildCFG(parseBody(t, `
xs := []int{1, 2}
for _, x := range xs {
	_ = x
}`))
	// The RangeStmt appears as a head node; its body statements live in a
	// separate block, so node-level walks must not see them twice.
	var rangeBlk *Block
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.RangeStmt); ok {
				rangeBlk = b
			}
		}
	}
	if rangeBlk == nil {
		t.Fatalf("no range head\n%s", c)
	}
	if len(rangeBlk.Succs) != 2 {
		t.Fatalf("range head succs = %d, want 2 (body, exit)\n%s", len(rangeBlk.Succs), c)
	}
}

func TestCFGReturnWiresExit(t *testing.T) {
	c := BuildCFG(parseBody(t, `
x := 1
if x > 0 {
	return
}
_ = x`))
	// The block ending in return must have the exit among its successors.
	found := false
	for _, b := range c.Blocks {
		if len(b.Nodes) == 0 {
			continue
		}
		if _, ok := b.Nodes[len(b.Nodes)-1].(*ast.ReturnStmt); ok {
			for _, s := range b.Succs {
				if s == c.Exit {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatalf("return not wired to exit\n%s", c)
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	c := BuildCFG(parseBody(t, `
x := 1
switch x {
case 1:
	x = 2
	fallthrough
case 2:
	x = 3
default:
	x = 4
}
_ = x`))
	if !reachable(c)[c.Exit] {
		t.Fatalf("exit unreachable\n%s", c)
	}
	// The fallthrough must connect case 1's block to case 2's block: find a
	// block whose last node is the fallthrough BranchStmt and check its
	// successor holds the x = 3 assignment.
	ok := false
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			br, is := n.(*ast.BranchStmt)
			if !is || br.Tok != token.FALLTHROUGH {
				continue
			}
			for _, s := range b.Succs {
				for _, sn := range s.Nodes {
					if as, isAs := sn.(*ast.AssignStmt); isAs && len(as.Rhs) == 1 {
						ok = true
					}
				}
			}
		}
	}
	if !ok {
		t.Fatalf("fallthrough edge missing\n%s", c)
	}
}

func TestCFGLabeledBreakAndGoto(t *testing.T) {
	c := BuildCFG(parseBody(t, `
outer:
for i := 0; i < 3; i++ {
	for j := 0; j < 3; j++ {
		if j == i {
			break outer
		}
		if j > i {
			goto done
		}
	}
}
done:
_ = 1`))
	if !reachable(c)[c.Exit] {
		t.Fatalf("exit unreachable\n%s", c)
	}
}

func TestCFGSelect(t *testing.T) {
	c := BuildCFG(parseBody(t, `
ch := make(chan int)
select {
case v := <-ch:
	_ = v
default:
}`))
	if !reachable(c)[c.Exit] {
		t.Fatalf("exit unreachable\n%s", c)
	}
}

// writeTempPkg materializes a one-file package for index tests.
func writeTempPkg(t *testing.T, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return pkg
}

func TestIndexBorrowAnnotations(t *testing.T) {
	pkg := writeTempPkg(t, `package p

// lend lends buf and transfers its result.
//
//vet:borrowed buf return
func lend(buf []byte) []byte { return buf }

func plain(b []byte) []byte { return b }
`)
	idx := BuildIndex([]*Package{pkg})
	byName := make(map[string]*FuncInfo)
	for _, fi := range idx.FuncsInOrder() {
		byName[fi.Name()] = fi
	}
	lend := byName["lend"]
	if !lend.Borrowed["buf"] || !lend.Borrowed["return"] {
		t.Fatalf("lend annotations = %v, want buf and return", lend.Borrowed)
	}
	if byName["plain"].Borrowed != nil {
		t.Fatalf("plain should carry no annotations")
	}
}

func TestIndexCallGraph(t *testing.T) {
	pkg := writeTempPkg(t, `package p

func a() { b() }
func b() { c(); c() }
func c() {}
`)
	idx := BuildIndex([]*Package{pkg})
	byName := make(map[string]*FuncInfo)
	for _, fi := range idx.FuncsInOrder() {
		byName[fi.Name()] = fi
	}
	if n := len(byName["a"].Calls); n != 1 {
		t.Fatalf("a calls = %d, want 1", n)
	}
	if n := len(byName["b"].Calls); n != 2 {
		t.Fatalf("b calls = %d, want 2", n)
	}
	if callee := byName["a"].Calls[0].Callee; callee == nil || callee.Name() != "b" {
		t.Fatalf("a's callee = %v, want b", callee)
	}
}
