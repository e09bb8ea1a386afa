package summary

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/callgraph"
	"repro/internal/lint/cfg"
)

// computeTermination fills NeverTerminates and StuckNoComm using the CFG's
// stuck-block analysis. A statement call to an in-package function already
// known to never terminate blocks its path exactly like select{} does —
// this is where the fact propagates bottom-up through wrappers.
func (set *Set) computeTermination(fc *funcCtx, g *cfg.Graph, sum *Summary) {
	lookup := func(call *ast.CallExpr) *Summary {
		s, _ := fc.calleeSummary(callgraph.Callee(fc.info, call))
		return s
	}
	sum.NeverTerminates, sum.StuckNoComm = stuckFacts(fc.info, g, lookup)
}

// BodyStuck analyzes an arbitrary function body against the completed
// summary set: whether it provably never terminates, and whether it has a
// non-terminating region containing no channel operation (so nothing
// external can ever signal it). Goroutine literals have no summary of their
// own; this is the goleak analyzer's entry point for them.
func (set *Set) BodyStuck(body *ast.BlockStmt) (neverTerminates, stuckNoComm bool) {
	if set == nil {
		return false, false
	}
	return stuckFacts(set.info, cfg.New(body), set.ForCall)
}

// stuckFacts runs the stuck-region analysis: a block is stuck when every
// continuation loops or blocks forever. lookup resolves a call to its
// callee's summary (nil for unknown) so that calling a never-terminating
// in-package function blocks a path like select{} does.
func stuckFacts(info *types.Info, g *cfg.Graph, lookup func(*ast.CallExpr) *Summary) (neverTerminates, stuckNoComm bool) {
	stuckCall := func(n ast.Node) bool {
		found := false
		walkCFGNode(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if s := lookup(call); s != nil && s.NeverTerminates {
					found = true
				}
			}
			return !found
		})
		return found
	}
	stuck := g.StuckBlocks(stuckCall)
	if len(stuck) == 0 {
		return false, false
	}
	inStuck := make(map[*cfg.Block]bool, len(stuck))
	for _, b := range stuck {
		inStuck[b] = true
	}
	neverTerminates = inStuck[g.Entry]

	// StuckNoComm: the stuck region has no channel operation at all —
	// nothing external can ever signal it. A receive, send, or range over a
	// channel anywhere in the region counts as a potential signal.
	for _, b := range stuck {
		for _, n := range b.Nodes {
			if nodeHasComm(info, n) {
				return neverTerminates, false
			}
		}
	}
	return neverTerminates, true
}

// nodeHasComm reports whether a CFG node performs a channel operation.
func nodeHasComm(info *types.Info, n ast.Node) bool {
	if rng, ok := n.(*ast.RangeStmt); ok {
		if t := info.TypeOf(rng.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				return true
			}
		}
		return false
	}
	found := false
	walkCFGNode(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				found = true
			}
		}
		return !found
	})
	return found
}

// computeError classifies the function's trailing error result across every
// return statement (nested literals excluded: their returns are their own).
// Bare returns with named results bail to unknown.
func (set *Set) computeError(fc *funcCtx, sum *Summary) {
	sig, ok := fc.node.Obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if !isErrorType(last) {
		return
	}
	allNil, allNonNil, classified := true, true, true
	sawReturn := false
	walkBodyStmts(fc.node.Decl.Body, func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		sawReturn = true
		if len(ret.Results) == 0 {
			classified = false
			return
		}
		switch fc.classifyErrExpr(ret.Results[len(ret.Results)-1]) {
		case ErrAlwaysNil:
			allNonNil = false
		case ErrNeverNil:
			allNil = false
		default:
			classified = false
		}
	})
	if !classified || !sawReturn {
		return
	}
	switch {
	case allNil && !allNonNil:
		sum.Error = ErrAlwaysNil
	case allNonNil && !allNil:
		sum.Error = ErrNeverNil
	}
}

// classifyErrExpr classifies one returned error expression.
func (fc *funcCtx) classifyErrExpr(e ast.Expr) ErrResult {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if _, isNil := fc.info.Uses[e].(*types.Nil); isNil {
			return ErrAlwaysNil
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if _, isLit := unparen(e.X).(*ast.CompositeLit); isLit {
				return ErrNeverNil // &SomeError{...}
			}
		}
	case *ast.CallExpr:
		if isErrCtor(fc.info, e) {
			return ErrNeverNil
		}
		if sum, _ := fc.calleeSummary(callgraph.Callee(fc.info, e)); sum != nil {
			// Pass-through: `return helper()` inherits the callee's fact
			// when the error is the callee's own trailing result.
			return sum.Error
		}
	}
	return ErrUnknown
}

// isErrCtor matches the standard never-nil constructors errors.New and
// fmt.Errorf.
func isErrCtor(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	path := pn.Imported().Path()
	return (path == "errors" && sel.Sel.Name == "New") ||
		(path == "fmt" && sel.Sel.Name == "Errorf")
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// walkBodyStmts walks a function body, skipping every nested function
// literal: a literal, stored, deferred or spawned, is a separate function
// whose effects reach the caller only through its call sites.
func walkBodyStmts(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if m != nil {
			fn(m)
		}
		return true
	})
}
