package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/cfg"
	"repro/internal/lint/flow"
	"repro/internal/lint/summary"
)

// ErrFlow reports error values that are assigned from a call and then never
// observed on any path before being overwritten or going dead. This is the
// dataflow complement of errdrop: errdrop catches `f()` as a bare
// statement; errflow catches the subtler
//
//	err := f()
//	err = g() // the f() error was never checked
//
// and the end-of-function variant where the last assignment to err is never
// read again. The analysis is a backward may-liveness problem over the CFG,
// per error-typed local variable (parameters and named results included).
// Any read — a condition, a call argument, a return value, `_ = err`, a
// panic argument — keeps the store live. Variables captured by nested
// function literals or having their address taken are exempt: their reads
// happen where a single-function analysis cannot see them.
var ErrFlow = &Analyzer{
	Name: "errflow",
	Doc:  "assigned error is overwritten or dropped before any path checks it",
	Run:  runErrFlow,
}

// efState is the live set: variables whose current value may still be read.
type efState map[*types.Var]bool

func efClone(s efState) efState {
	c := make(efState, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func efEqual(a, b efState) bool {
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

func efJoin(dst, src efState) efState {
	for k := range src {
		dst[k] = true
	}
	return dst
}

func runErrFlow(p *Pass) {
	for _, f := range p.Files {
		for _, fn := range functionsIn(f) {
			errFlowFunc(p, fn)
		}
	}
}

func errFlowFunc(p *Pass, fn funcScope) {
	relevant := efRelevantVars(p, fn)
	if len(relevant) == 0 {
		return
	}
	g := cfg.New(fn.body)
	named := efNamedErrorResults(p, fn)
	prob := flow.Problem[efState]{
		Backward: true,
		Boundary: func() efState { return efState{} },
		Transfer: func(b *cfg.Block, s efState) efState {
			for i := len(b.Nodes) - 1; i >= 0; i-- {
				efTransferNode(p, b.Nodes[i], s, relevant, named)
			}
			return s
		},
		Join:  efJoin,
		Equal: efEqual,
		Clone: efClone,
	}
	res := flow.Solve(g, prob)

	// Replay each forward-reachable block backward from its fixed-point
	// after-state; at each assignment of a call result to a relevant
	// variable that is dead right after the store, report.
	for _, b := range g.Reachable() {
		after, ok := res.In[b]
		if !ok {
			continue
		}
		s := efClone(after)
		for i := len(b.Nodes) - 1; i >= 0; i-- {
			n := b.Nodes[i]
			if asg, ok := n.(*ast.AssignStmt); ok {
				efReportDeadStores(p, asg, s, relevant)
			}
			efTransferNode(p, n, s, relevant, named)
		}
	}
}

// efRelevantVars collects the error-typed variables this function declares
// (via :=, var, parameters, or named results), excluding any that are
// captured by nested literals or have their address taken.
func efRelevantVars(p *Pass, fn funcScope) map[*types.Var]bool {
	rel := make(map[*types.Var]bool)
	addDef := func(id *ast.Ident) {
		if v, ok := p.Info.Defs[id].(*types.Var); ok && !v.IsField() && isErrorType(v.Type()) {
			rel[v] = true
		}
	}
	for _, fl := range []*ast.FieldList{fn.ftype.Params, fn.ftype.Results} {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				addDef(name)
			}
		}
	}
	inspectShallow(fn.body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			addDef(id)
		}
		return true
	})
	if len(rel) == 0 {
		return rel
	}
	for v := range capturedVars(p, fn.body) {
		delete(rel, v)
	}
	// Address-taken variables alias; drop them.
	inspectShallow(fn.body, func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.AND {
			if id, ok := unparen(u.X).(*ast.Ident); ok {
				if v, ok := p.Info.Uses[id].(*types.Var); ok {
					delete(rel, v)
				}
			}
		}
		return true
	})
	return rel
}

// efNamedErrorResults returns the function's named error results: a naked
// `return` reads all of them.
func efNamedErrorResults(p *Pass, fn funcScope) []*types.Var {
	var out []*types.Var
	if fn.ftype.Results == nil {
		return nil
	}
	for _, field := range fn.ftype.Results.List {
		for _, name := range field.Names {
			if v, ok := p.Info.Defs[name].(*types.Var); ok && isErrorType(v.Type()) {
				out = append(out, v)
			}
		}
	}
	return out
}

// efTransferNode applies one node backward: live = (live − defs) ∪ uses.
func efTransferNode(p *Pass, n ast.Node, s efState, rel map[*types.Var]bool, named []*types.Var) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		// Defs kill first (we are walking backward, so kills apply before
		// the uses of the same statement are added back).
		for _, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if v := efVarOf(p, id); v != nil && rel[v] {
					delete(s, v)
				}
				continue
			}
			// A store through a selector/index reads its base.
			efAddUses(p, lhs, s, rel)
		}
		for _, rhs := range n.Rhs {
			efAddUses(p, rhs, s, rel)
		}

	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						if v := efVarOf(p, name); v != nil && rel[v] {
							delete(s, v)
						}
					}
					for _, val := range vs.Values {
						efAddUses(p, val, s, rel)
					}
				}
			}
		}

	case *ast.ReturnStmt:
		if len(n.Results) == 0 {
			// Naked return: reads every named error result.
			for _, v := range named {
				if rel[v] {
					s[v] = true
				}
			}
			return
		}
		for _, r := range n.Results {
			efAddUses(p, r, s, rel)
		}

	case *ast.RangeStmt:
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if id, ok := e.(*ast.Ident); ok {
				if v := efVarOf(p, id); v != nil && rel[v] {
					delete(s, v)
				}
			}
		}

	default:
		efAddUses(p, n, s, rel)
	}
}

// efReportDeadStores reports call-result stores into relevant variables
// that are dead immediately after the assignment. s must be the live set
// *after* the assignment (the replay calls this before applying the node's
// own backward transfer). Nil stores (`err = nil`) reset state and are
// exempt.
func efReportDeadStores(p *Pass, n *ast.AssignStmt, s efState, rel map[*types.Var]bool) {
	for i, lhs := range n.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		v := efVarOf(p, id)
		if v == nil || !rel[v] || s[v] {
			continue
		}
		var rhs ast.Expr
		if len(n.Rhs) == len(n.Lhs) {
			rhs = n.Rhs[i]
		} else if len(n.Rhs) == 1 {
			rhs = n.Rhs[0]
		}
		if rhs == nil {
			continue
		}
		call, isCall := unparen(rhs).(*ast.CallExpr)
		if !isCall {
			continue
		}
		// Interprocedural refinement: a callee proven to return a nil error
		// on every path makes the unread store harmless — the value being
		// dropped is always nil, exactly like the exempt `err = nil` reset.
		if sum := p.Sums.ForCall(call); sum != nil && sum.Error == summary.ErrAlwaysNil {
			continue
		}
		p.reportf(id.Pos(), "the error assigned to %s is overwritten or dropped before any path reads it", v.Name())
	}
}

// efAddUses adds every relevant identifier read within n to the live set.
func efAddUses(p *Pass, n ast.Node, s efState, rel map[*types.Var]bool) {
	if n == nil {
		return
	}
	inspectCFGNode(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if v := efVarOf(p, id); v != nil && rel[v] {
				s[v] = true
			}
		}
		return true
	})
}

func efVarOf(p *Pass, id *ast.Ident) *types.Var {
	var obj types.Object
	if o, ok := p.Info.Defs[id]; ok {
		obj = o
	} else {
		obj = p.Info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return nil
	}
	return v
}
