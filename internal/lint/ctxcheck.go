package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxCheck reports goroutines started inside loops with no shutdown path.
// The collector's accept loop, the generator's worker pools, and the
// orchestrator all spawn per-iteration goroutines; each must either be
// cancellable from inside (a channel receive, range-over-channel, select,
// or context.Done) or joinable from outside (tracked by a sync.WaitGroup),
// or the process leaks goroutines under load until memory runs out. Only
// function-literal goroutines are inspected — a named function's body is
// not visible here, so `go named(...)` is given the benefit of the doubt.
var CtxCheck = &Analyzer{
	Name: "ctxcheck",
	Doc:  "goroutine spawned in a loop without a cancellation/shutdown path",
	Run:  runCtxCheck,
}

func runCtxCheck(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
			default:
				return true
			}
			var body *ast.BlockStmt
			if fs, ok := n.(*ast.ForStmt); ok {
				body = fs.Body
			} else {
				body = n.(*ast.RangeStmt).Body
			}
			ast.Inspect(body, func(m ast.Node) bool {
				gs, ok := m.(*ast.GoStmt)
				if !ok {
					return true
				}
				lit, ok := gs.Call.Fun.(*ast.FuncLit)
				if !ok {
					return true
				}
				if !cancellable(p, lit.Body) && !waitGroupTracked(p, lit.Body) {
					p.reportf(gs.Pos(), "goroutine spawned in a loop has no shutdown path (no channel receive/select/context.Done and not WaitGroup-tracked)")
				}
				return true
			})
			return true
		})
	}
}

// cancellable reports whether the goroutine body contains any construct
// through which a shutdown can reach it: a channel receive, a range over a
// channel, a select, or a context.Context method/value.
func cancellable(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch e := n.(type) {
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				found = true
			}
		case *ast.SelectStmt:
			found = true
		case *ast.RangeStmt:
			if _, ok := typeUnder(p.typeOf(e.X)).(*types.Chan); ok {
				found = true
			}
		case ast.Expr:
			if isContextType(p.typeOf(e)) {
				found = true
			}
		}
		return !found
	})
	return found
}

// waitGroupTracked reports whether the goroutine body calls Done on a
// sync.WaitGroup (typically `defer wg.Done()`): such goroutines have a join
// point the owner waits on at shutdown.
func waitGroupTracked(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		t := p.typeOf(sel.X)
		if t == nil {
			return true
		}
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup" {
				found = true
			}
		}
		return !found
	})
	return found
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
