package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/cfg"
	"repro/internal/lint/flow"
	"repro/internal/lint/summary"
)

// PoolRelease reports pooled values that can leak: a value obtained from a
// registered acquire function (a function named `Acquire` or `NewTable`
// whose result has a `Release` method, or a `sync.Pool` `Get`) must reach
// `Release`/`Put` on every non-panicking exit path. The epoch engine's
// cktable.Table lives in a sync.Pool precisely to keep the steady state
// allocation-free; one early-return path that skips Release silently turns
// the pool into a leak and the zero-alloc claim into fiction — without
// failing any test.
//
// The analysis is a forward may-leak problem over the CFG: each tracked
// variable is Unreleased from its acquire until a release (`x.Release()`,
// `pool.Put(x)`, or the deferred forms) or an ownership escape. A value
// escapes — and stops being this function's obligation — when it is
// returned, stored into a field/element/composite literal, sent on a
// channel, aliased, or has its address taken. Passing the value as an
// ordinary call argument is NOT an escape (callees like
// cluster.BuildView(tbl, …) borrow, they do not take ownership). Variables
// captured by nested function literals are not tracked at all. Paths that
// end in panic/os.Exit are exempt (crash paths owe the pool nothing).
var PoolRelease = &Analyzer{
	Name: "poolrelease",
	Doc:  "pooled value acquired here does not reach Release/Put on every exit path",
	Run:  runPoolRelease,
}

// poolAcquireNames registers the function/method names whose results carry
// a Release obligation. A name match alone is not enough: the result type
// must itself have a Release method (sync.Pool Get is the exception, paired
// with Put).
var poolAcquireNames = map[string]bool{
	"Acquire":  true,
	"NewTable": true,
}

// prFact tracks one acquired variable on the current path set.
type prFact struct {
	released bool
	// acquiredAt positions the acquire for the diagnostic.
	acquiredAt token.Pos
	// what renders the acquire call ("cktable.Acquire").
	what string
	// guard is the ok variable of a comma-ok acquire
	// (`x, ok := pool.Get().(*T)`): on the ok-false edge the assertion
	// failed and x is nil, so the obligation is dropped there.
	guard *types.Var
}

type prState map[*types.Var]prFact

func prClone(s prState) prState {
	c := make(prState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func prEqual(a, b prState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// prJoin: a variable unreleased on any incoming path is unreleased; one
// known only as released (or absent — no obligation) stays released.
func prJoin(dst, src prState) prState {
	for k, sv := range src {
		dv, ok := dst[k]
		if !ok || (!sv.released && dv.released) {
			dst[k] = sv
		}
	}
	return dst
}

func runPoolRelease(p *Pass) {
	for _, f := range p.Files {
		for _, fn := range functionsIn(f) {
			poolReleaseFunc(p, fn)
		}
	}
}

func poolReleaseFunc(p *Pass, fn funcScope) {
	caps := capturedVars(p, fn.body)
	g := cfg.New(fn.body)
	prob := flow.Problem[prState]{
		Boundary: func() prState { return prState{} },
		Transfer: func(b *cfg.Block, s prState) prState {
			prTransfer(p, b, g, s, caps, nil)
			return s
		},
		Edge: func(from *cfg.Block, succIdx int, s prState) prState {
			if from.Branch == cfg.Cond && from.Cond != nil && succIdx <= 1 {
				prRefine(p, s, from.Cond, succIdx == 0)
			}
			return s
		},
		Join:  prJoin,
		Equal: prEqual,
		Clone: prClone,
	}
	res := flow.Solve(g, prob)
	for _, b := range g.Reachable() {
		in, ok := res.In[b]
		if !ok {
			continue
		}
		prTransfer(p, b, g, prClone(in), caps, p.reportf)
	}
}

func prTransfer(p *Pass, b *cfg.Block, g *cfg.Graph, s prState, caps map[*types.Var]bool, report func(token.Pos, string, ...any)) {
	for _, n := range b.Nodes {
		switch n := n.(type) {
		case *ast.AssignStmt:
			prEscapeScan(p, s, n.Rhs)
			prHandleAssign(p, s, n, caps, report)

		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						prEscapeScan(p, s, vs.Values)
						prHandleValueSpec(p, s, vs, caps)
					}
				}
			}

		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				prApplyRelease(p, s, call)
			}

		case *ast.DeferStmt:
			prApplyRelease(p, s, n.Call)

		case *ast.GoStmt:
			// The goroutine outlives this path: everything it mentions
			// escapes.
			prMarkAllIdents(p, s, n.Call)

		case *ast.SendStmt:
			prMarkAllIdents(p, s, n.Value)

		case *ast.ReturnStmt:
			// Any tracked value mentioned in the results transfers (or may
			// transfer) ownership to the caller first; then everything
			// still unreleased on this path is a leak.
			for _, r := range n.Results {
				prMarkAllIdents(p, s, r)
			}
			if report != nil {
				prCheckExit(p, s, n.Pos(), "this return", report)
			}

		case *ast.RangeStmt:
			// Key/Value rebinding kills any tracked obligation on those
			// names (an acquired value should never be a range variable,
			// but stay sound).
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok {
					if v, ok := p.Info.Defs[id].(*types.Var); ok {
						delete(s, v)
					}
				}
			}

		default:
			// Condition expressions and other atomic nodes: composite
			// literals or address-of mentions still escape.
			if e, ok := n.(ast.Expr); ok {
				prEscapeScan(p, s, []ast.Expr{e})
			}
		}
	}
	if report != nil && blockFallsToExit(b, g) {
		prCheckExit(p, s, g.End, "the end of the function", report)
	}
}

func prCheckExit(p *Pass, s prState, pos token.Pos, where string, report func(token.Pos, string, ...any)) {
	for v, fact := range s {
		if fact.released {
			continue
		}
		report(pos, "%s acquired from %s (line %d) does not reach Release/Put on the path through %s",
			v.Name(), fact.what, p.Fset.Position(fact.acquiredAt).Line, where)
	}
}

// prHandleAssign applies an assignment: kills and re-gens tracked LHS
// variables, and begins tracking acquire results assigned to plain local
// identifiers.
func prHandleAssign(p *Pass, s prState, n *ast.AssignStmt, caps map[*types.Var]bool, report func(token.Pos, string, ...any)) {
	// Pair up LHS and RHS. The comma-ok form (x, ok := pool.Get().(*T))
	// and the multi-result call keep the acquire in Rhs[0].
	for i, lhs := range n.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		v := prObjOf(p, id)
		if v == nil {
			continue
		}
		if old, tracked := s[v]; tracked && !old.released && report != nil {
			report(id.Pos(), "%s is reassigned while the value acquired from %s (line %d) is still unreleased",
				v.Name(), old.what, p.Fset.Position(old.acquiredAt).Line)
		}
		delete(s, v)
		var rhs ast.Expr
		if len(n.Rhs) == len(n.Lhs) {
			rhs = n.Rhs[i]
		} else if len(n.Rhs) == 1 && i == 0 {
			rhs = n.Rhs[0]
		}
		if rhs == nil || caps[v] {
			continue
		}
		if what, ok := prAcquireExpr(p, rhs); ok {
			f := prFact{acquiredAt: rhs.Pos(), what: what}
			// Comma-ok acquire: remember the ok variable so the branch
			// refinement can drop the obligation on the assertion-failed
			// edge (x is nil there).
			if len(n.Lhs) == 2 && len(n.Rhs) == 1 && i == 0 {
				if _, isAssert := unparen(n.Rhs[0]).(*ast.TypeAssertExpr); isAssert {
					if okID, isIdent := n.Lhs[1].(*ast.Ident); isIdent && okID.Name != "_" {
						f.guard = prObjOf(p, okID)
					}
				}
			}
			s[v] = f
		}
	}
}

// prRefine narrows the state flowing along one branch edge of a Cond block.
// Two proofs of nil-ness drop an obligation: the false edge of a comma-ok
// guard recorded at the acquire, and an explicit `x == nil` / `x != nil`
// test. A nil value was never taken from the pool, so it owes no Release.
func prRefine(p *Pass, s prState, cond ast.Expr, truthy bool) {
	if len(s) == 0 {
		return
	}
	switch e := unparen(cond).(type) {
	case *ast.Ident:
		if truthy {
			return
		}
		v := prObjOf(p, e)
		if v == nil {
			return
		}
		for tracked, f := range s {
			if f.guard == v {
				delete(s, tracked)
			}
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			prRefine(p, s, e.X, !truthy)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL, token.NEQ:
			var id *ast.Ident
			if prIsNil(p, e.Y) {
				id, _ = unparen(e.X).(*ast.Ident)
			} else if prIsNil(p, e.X) {
				id, _ = unparen(e.Y).(*ast.Ident)
			}
			if id == nil {
				return
			}
			if nilHere := (e.Op == token.EQL) == truthy; nilHere {
				if v := prObjOf(p, id); v != nil {
					delete(s, v)
				}
			}
		case token.LAND:
			if truthy {
				prRefine(p, s, e.X, true)
				prRefine(p, s, e.Y, true)
			}
		case token.LOR:
			if !truthy {
				prRefine(p, s, e.X, false)
				prRefine(p, s, e.Y, false)
			}
		}
	}
}

func prIsNil(p *Pass, e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := p.Info.Uses[id].(*types.Nil)
	return isNil
}

func prHandleValueSpec(p *Pass, s prState, vs *ast.ValueSpec, caps map[*types.Var]bool) {
	for i, name := range vs.Names {
		v, _ := p.Info.Defs[name].(*types.Var)
		if v == nil || caps[v] || i >= len(vs.Values) {
			continue
		}
		if what, ok := prAcquireExpr(p, vs.Values[i]); ok {
			s[v] = prFact{acquiredAt: vs.Values[i].Pos(), what: what}
		}
	}
}

// prObjOf resolves an identifier to the local variable it uses or defines.
func prObjOf(p *Pass, id *ast.Ident) *types.Var {
	var obj types.Object
	if o, ok := p.Info.Defs[id]; ok {
		obj = o
	} else {
		obj = p.Info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	return v
}

// prAcquireExpr reports whether e (possibly behind a type assertion or
// parens) is a registered acquire call, returning the rendered callee.
func prAcquireExpr(p *Pass, e ast.Expr) (string, bool) {
	for {
		switch w := e.(type) {
		case *ast.ParenExpr:
			e = w.X
		case *ast.TypeAssertExpr:
			e = w.X
		default:
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return "", false
			}
			return prAcquireCall(p, call)
		}
	}
}

func prAcquireCall(p *Pass, call *ast.CallExpr) (string, bool) {
	// sync.Pool Get.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Get" && isSyncPool(p, sel.X) {
		return types.ExprString(call.Fun), true
	}
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return "", false
	}
	if !poolAcquireNames[name] {
		return "", false
	}
	// The result type must itself carry a Release method; this keeps an
	// unrelated NewTable from creating phantom obligations.
	t := p.typeOf(call)
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return "", false
		}
		t = tup.At(0).Type()
	}
	if t == nil || !hasReleaseMethod(t) {
		return "", false
	}
	return types.ExprString(call.Fun), true
}

func hasReleaseMethod(t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Release")
	_, ok := obj.(*types.Func)
	return ok
}

func isSyncPool(p *Pass, e ast.Expr) bool {
	t := p.typeOf(e)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Pool"
}

// prApplyRelease marks tracked variables released by this call:
// `x.Release()` or `pool.Put(x)` (or any call named Put whose argument is a
// tracked identifier, covering typed pool wrappers) — and, interprocedurally,
// any in-package callee whose summary proves it releases the parameter the
// tracked value is passed as, on every path.
func prApplyRelease(p *Pass, s prState, call *ast.CallExpr) {
	prApplyCalleeReleases(p, s, call)
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "Release":
		if id, ok := sel.X.(*ast.Ident); ok {
			if v := prObjOf(p, id); v != nil {
				if f, tracked := s[v]; tracked {
					f.released = true
					s[v] = f
				}
			}
		}
	case "Put":
		for _, arg := range call.Args {
			if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
				arg = u.X
			}
			if id, ok := arg.(*ast.Ident); ok {
				if v := prObjOf(p, id); v != nil {
					if f, tracked := s[v]; tracked {
						f.released = true
						s[v] = f
					}
				}
			}
		}
	}
}

// prApplyCalleeReleases discharges obligations through a callee summary: a
// helper that provably calls Release/Put on its i-th parameter (or its
// receiver) on every path releases the argument here, so wrappers like
// `cleanup(tbl)` no longer read as leaks.
func prApplyCalleeReleases(p *Pass, s prState, call *ast.CallExpr) {
	if len(s) == 0 {
		return
	}
	sum := p.Sums.ForCall(call)
	if sum == nil || len(sum.Releases) == 0 {
		return
	}
	release := func(e ast.Expr) {
		if id, ok := unparen(e).(*ast.Ident); ok {
			if v := prObjOf(p, id); v != nil {
				if f, tracked := s[v]; tracked {
					f.released = true
					s[v] = f
				}
			}
		}
	}
	for ref := range sum.Releases {
		if ref.Path != "" {
			continue // a field of the argument, not the argument itself
		}
		if ref.Param == summary.Recv {
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
				release(sel.X)
			}
			continue
		}
		if ref.Param >= 0 && ref.Param < len(call.Args) {
			release(call.Args[ref.Param])
		}
	}
}

// prMarkAllIdents discharges every tracked identifier mentioned anywhere in
// n. Used where the whole expression outlives or leaves the current path
// (return results, goroutine calls, channel sends): conservatively treating
// any mention as an ownership transfer trades a rare false negative for
// zero false positives on `return view(t)`-shaped code.
func prMarkAllIdents(p *Pass, s prState, n ast.Node) {
	if len(s) == 0 || n == nil {
		return
	}
	inspectCFGNode(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if v := prObjOf(p, id); v != nil {
				if f, tracked := s[v]; tracked {
					f.released = true
					s[v] = f
				}
			}
		}
		return true
	})
}

// prEscapeScan releases this function from obligations whose value escapes
// through any of the given expressions: a bare alias of the tracked
// identifier, a composite literal, an address-of, an index/field store (the
// tracked ident as the RHS root), or anything inside a go statement. Plain
// call arguments do not escape — see the analyzer comment.
func prEscapeScan(p *Pass, s prState, exprs []ast.Expr) {
	if len(s) == 0 {
		return
	}
	markDone := func(id *ast.Ident) {
		if v := prObjOf(p, id); v != nil {
			if f, tracked := s[v]; tracked {
				f.released = true
				s[v] = f
			}
		}
	}
	for _, e := range exprs {
		if e == nil {
			continue
		}
		// A bare tracked identifier as a whole RHS/result/operand value is
		// an ownership transfer.
		if id, ok := unparen(e).(*ast.Ident); ok {
			markDone(id)
			continue
		}
		inspectCFGNode(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					target := elt
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						target = kv.Value
					}
					if id, ok := unparen(target).(*ast.Ident); ok {
						markDone(id)
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if id, ok := unparen(n.X).(*ast.Ident); ok {
						markDone(id)
					}
				}
			case *ast.GoStmt:
				// Handled at the statement level; nothing extra here.
			}
			return true
		})
	}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}
