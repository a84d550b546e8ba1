package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// forbiddenEngineMethods are the Engine entry points a bus consumer must
// never re-enter. Ingest/IngestTraced/Collect/CollectTraced feed the
// pipeline that publishes to the very bus the consumer rides (unbounded
// feedback); Flush drains the bus and would wait on the calling consumer
// forever; Close waits for the consumer's own goroutine to exit.
var forbiddenEngineMethods = map[string]string{
	"Ingest":        "feeds the pipeline back into the bus the consumer rides",
	"IngestTraced":  "feeds the pipeline back into the bus the consumer rides",
	"Collect":       "feeds the pipeline back into the bus the consumer rides",
	"CollectTraced": "feeds the pipeline back into the bus the consumer rides",
	"Flush":         "drains the bus and would wait on this consumer forever",
	"Close":         "waits for this consumer's own goroutine to exit",
}

// Busconsumer enforces the consumer-bus re-entrancy invariant: a window
// consumer (any function installed as a ConsumerSpec.Fn) runs on a bus
// delivery goroutine, so it must not call back into the engine's ingest
// or lifecycle path — Engine.Ingest, IngestTraced, Collect, CollectTraced,
// Flush or Close — directly or through module functions, in any package.
// Ingest calls re-enter the pipeline that publishes to the bus; Flush
// blocks until the bus drains, which includes the consumer making the
// call; Close joins the consumer's own goroutine. All three shapes are
// livelocks or deadlocks that only fire under load, never in a quick test.
//
// Matching is name-based (a named struct type ConsumerSpec with a
// function-typed Fn field; a named receiver type Engine) so the golden
// testdata package, which cannot import internal/core, exercises the same
// code paths the real module does.
func Busconsumer() *Analyzer {
	a := &Analyzer{
		Name: "busconsumer",
		Doc:  "flag bus consumers that re-enter the engine ingest or lifecycle path",
	}
	a.RunModule = runBusconsumer
	return a
}

func runBusconsumer(p *ModulePass) {
	// One reported set for the module: a helper reachable from several
	// consumers is flagged once.
	reported := map[ast.Node]bool{}
	for _, pkg := range p.Index.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				fields := consumerSpecFields(pkg.Info, lit)
				if fields == nil {
					return true
				}
				// The root is the expression installed as the Fn field,
				// in a keyed or a positional literal.
				for i, root := range lit.Elts {
					if kv, ok := root.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); !ok || id.Name != "Fn" {
							continue
						}
						root = kv.Value
					} else if i >= len(fields) || fields[i] != "Fn" {
						continue
					}
					w := &consumerWalk{ModulePass: p, label: "bus consumer", seen: map[*FuncInfo]bool{}, reported: reported}
					if name := specName(lit); name != "" {
						w.label += " " + name
					}
					if fl, ok := ast.Unparen(root).(*ast.FuncLit); ok {
						w.scan(pkg, fl.Body)
					} else {
						w.follow(staticCallee(pkg.Info, root))
					}
				}
				return true
			})
		}
	}
}

// consumerWalk follows one consumer root through the module. seen breaks
// recursion cycles; reported dedupes sites reachable from several roots.
type consumerWalk struct {
	*ModulePass
	label    string // "bus consumer replayer"
	seen     map[*FuncInfo]bool
	reported map[ast.Node]bool
}

// consumerSpecFields returns the ordered field names when lit is a
// composite literal of a named type ConsumerSpec whose Fn field has a
// function type, and nil otherwise.
func consumerSpecFields(info *types.Info, lit *ast.CompositeLit) []string {
	named, ok := info.TypeOf(lit).(*types.Named)
	if !ok || named.Obj().Name() != "ConsumerSpec" {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	fields := make([]string, st.NumFields())
	hasFn := false
	for i := 0; i < st.NumFields(); i++ {
		fields[i] = st.Field(i).Name()
		if fields[i] == "Fn" {
			_, hasFn = st.Field(i).Type().Underlying().(*types.Signature)
		}
	}
	if !hasFn {
		return nil
	}
	return fields
}

// specName extracts the literal's Name field value when it is a constant
// string, for friendlier diagnostics.
func specName(lit *ast.CompositeLit) string {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Name" {
			if bl, ok := kv.Value.(*ast.BasicLit); ok {
				if name, err := strconv.Unquote(bl.Value); err == nil {
					return name
				}
			}
		}
	}
	return ""
}

// follow scans the body of the module function fn, once per root.
func (w *consumerWalk) follow(fn *types.Func) {
	if fi := w.Index.Funcs[fn]; fi != nil && !w.seen[fi] {
		w.seen[fi] = true
		w.scan(fi.Pkg, fi.Decl.Body)
	}
}

// scan reports forbidden engine calls in body, which belongs to pkg, and
// follows module callees and nested function literals that the consumer
// invokes on its own goroutine.
func (w *consumerWalk) scan(pkg *Package, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		// A goroutine the consumer spawns is not on the delivery path;
		// blocking there does not stall the bus.
		if _, ok := n.(*ast.GoStmt); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if method, why := engineMethodCall(pkg.Info, call); method != "" {
			if !w.reported[call] {
				w.reported[call] = true
				w.Reportf(pkg, call.Pos(), "%s calls Engine.%s: %s; consumers must never re-enter the engine", w.label, method, why)
			}
			return true
		}
		w.follow(staticCallee(pkg.Info, call.Fun))
		return true
	})
}

// engineMethodCall reports the forbidden method name and rationale when
// call invokes one of the engine's re-entrancy-unsafe methods on a value
// whose named type is Engine (pointer or value receiver).
func engineMethodCall(info *types.Info, call *ast.CallExpr) (method, why string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	why, forbidden := forbiddenEngineMethods[sel.Sel.Name]
	if !forbidden {
		return "", ""
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return "", ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Engine" {
		return "", ""
	}
	return sel.Sel.Name, why
}
