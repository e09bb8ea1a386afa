package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/cfg"
	"repro/internal/lint/flow"
	"repro/internal/lint/summary"
)

// WgBalance reports sync.WaitGroup misuse along control-flow paths:
//
//   - Done without a matching Add (drives the counter negative, which
//     panics) — including a Done hidden in an in-package helper.
//   - Wait that blocks forever: the counter is positive on every path and
//     every Done the function (or a goroutine it spawned) will ever perform
//     has already been credited.
//   - A function returning with a locally-declared WaitGroup's counter
//     still positive — the Adds can never be matched once the variable is
//     unreachable.
//   - Add inside a spawned goroutine on a WaitGroup from the enclosing
//     scope: it races with the parent's Wait, which may find the counter at
//     zero and return before the goroutine runs (the documented misuse).
//
// The accounting convention matches the summary package: a Done performed
// by a goroutine this function spawns is credited immediately at the go
// statement. That is not a happens-before fact — it is exactly what Wait
// guarantees to observe, which is the balance this analyzer checks.
// Counters are tracked per rendered receiver expression as intervals, like
// lockbalance; a key exists only once an Add is seen, so worker-side
// functions that only call Done are never flagged here (their net effect is
// the caller's business, via their summary). Passing the WaitGroup to an
// unknown callee, or to one whose summary lost track of it, poisons the key.
var WgBalance = &Analyzer{
	Name: "wgbalance",
	Doc:  "WaitGroup Add/Done/Wait imbalance: negative counter, Wait that cannot return, or racy Add",
	Run:  runWgBalance,
}

// wgIv bounds the outstanding count (Add minus Done credits) on the paths
// reaching a point.
type wgIv struct{ lo, hi int8 }

type wgState struct {
	iv     map[string]wgIv
	poison map[string]bool
	// seen marks keys that had an Add on some path: an interval normalized
	// away at [0,0] is still "tracked at zero" for Done accounting, as
	// opposed to a worker-side key that never had an Add at all.
	seen map[string]bool
}

func wgNew() wgState {
	return wgState{iv: make(map[string]wgIv), poison: make(map[string]bool), seen: make(map[string]bool)}
}

func wgClone(s wgState) wgState {
	c := wgState{
		iv:     make(map[string]wgIv, len(s.iv)),
		poison: make(map[string]bool, len(s.poison)),
		seen:   make(map[string]bool, len(s.seen)),
	}
	for k, v := range s.iv {
		c.iv[k] = v
	}
	for k := range s.poison {
		c.poison[k] = true
	}
	for k := range s.seen {
		c.seen[k] = true
	}
	return c
}

func wgEqual(a, b wgState) bool {
	if len(a.iv) != len(b.iv) || len(a.poison) != len(b.poison) || len(a.seen) != len(b.seen) {
		return false
	}
	for k, v := range a.iv {
		if b.iv[k] != v {
			return false
		}
	}
	for k := range a.poison {
		if !b.poison[k] {
			return false
		}
	}
	for k := range a.seen {
		if !b.seen[k] {
			return false
		}
	}
	return true
}

// wgJoin hulls the intervals (absent reads as [0,0]) and unions poison and
// seen.
func wgJoin(dst, src wgState) wgState {
	for k := range src.poison {
		dst.poison[k] = true
	}
	for k := range src.seen {
		dst.seen[k] = true
	}
	for k, sv := range src.iv {
		dv, ok := dst.iv[k]
		if !ok {
			dv = wgIv{}
		}
		if sv.lo < dv.lo {
			dv.lo = sv.lo
		}
		if sv.hi > dv.hi {
			dv.hi = sv.hi
		}
		dst.iv[k] = dv
	}
	for k, dv := range dst.iv {
		if _, ok := src.iv[k]; !ok {
			if dv.lo > 0 {
				dv.lo = 0
			}
			if dv.hi < 0 {
				dv.hi = 0
			}
			dst.iv[k] = dv
		}
	}
	for k, v := range dst.iv {
		if v == (wgIv{}) || dst.poison[k] {
			delete(dst.iv, k)
		}
	}
	return dst
}

func (s wgState) credit(k string, d int8) {
	if s.poison[k] {
		return
	}
	iv, ok := s.iv[k]
	if !ok {
		return // Done on an untracked key: the worker side, not ours to judge
	}
	iv.lo, iv.hi = lbClamp(iv.lo+d), lbClamp(iv.hi+d)
	if iv == (wgIv{}) {
		delete(s.iv, k)
	} else {
		s.iv[k] = iv
	}
}

func (s wgState) track(k string, d int8) {
	if s.poison[k] {
		return
	}
	s.seen[k] = true
	iv := s.iv[k]
	iv.lo, iv.hi = lbClamp(iv.lo+d), lbClamp(iv.hi+d)
	s.iv[k] = iv
}

func (s wgState) poisonKey(k string) {
	s.poison[k] = true
	delete(s.iv, k)
}

// poisonPrefix poisons every key derived from the rendered base expression:
// handing out `c` compromises `c.wg` too.
func (s wgState) poisonPrefix(base string) {
	for k := range s.iv {
		if k == base || strings.HasPrefix(k, base+".") {
			s.poisonKey(k)
		}
	}
}

func runWgBalance(p *Pass) {
	for _, f := range p.Files {
		for _, fn := range functionsIn(f) {
			wgBalanceFunc(p, fn)
		}
	}
}

type wgCtx struct {
	pass *Pass
	fn   funcScope
	// local marks rendered keys whose base variable is declared inside this
	// function and never captured by a stored literal: only those get the
	// exit-positive report (an escaping WaitGroup may be Done'd elsewhere).
	local map[string]bool
}

func wgBalanceFunc(p *Pass, fn funcScope) {
	ctx := &wgCtx{pass: p, fn: fn, local: make(map[string]bool)}

	// Pre-pass: classify each WaitGroup key's base variable. Captures by
	// literals that are not the direct body of a go/defer statement mean the
	// variable's lifetime escapes this function's flow.
	captured := capturedVars(p, fn.body)
	ast.Inspect(fn.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, _, baseVar, ok := wgCall(p, call)
		if !ok || baseVar == nil {
			return true
		}
		ctx.local[key] = baseVar.Pos() > fn.body.Pos() && baseVar.Pos() < fn.body.End() && !captured[baseVar]
		return true
	})

	g := cfg.New(fn.body)
	prob := flow.Problem[wgState]{
		Boundary: wgNew,
		Transfer: func(b *cfg.Block, s wgState) wgState {
			ctx.transfer(b, g, s, nil)
			return s
		},
		Join:  wgJoin,
		Equal: wgEqual,
		Clone: wgClone,
	}
	res := flow.Solve(g, prob)
	for _, b := range g.Reachable() {
		in, ok := res.In[b]
		if !ok {
			continue
		}
		ctx.transfer(b, g, wgClone(in), p.reportf)
	}
}

func (ctx *wgCtx) transfer(b *cfg.Block, g *cfg.Graph, s wgState, report func(token.Pos, string, ...any)) {
	for _, n := range b.Nodes {
		switch n := n.(type) {
		case *ast.GoStmt:
			ctx.applyGo(n, s, report)
		case *ast.DeferStmt:
			ctx.applyDefer(n, s, report)
		case *ast.ReturnStmt:
			if report != nil {
				ctx.checkExit(s, n.Pos(), report)
			}
		default:
			inspectCFGNode(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					ctx.applyCall(call, s, report)
				}
				return true
			})
		}
	}
	if report != nil && blockFallsToExit(b, g) {
		ctx.checkExit(s, g.End, report)
	}
}

func (ctx *wgCtx) checkExit(s wgState, pos token.Pos, report func(token.Pos, string, ...any)) {
	for k, iv := range s.iv {
		if iv.lo > 0 && ctx.local[k] {
			report(pos, "%s counter is still positive here on every path: %s.Wait() (or a missing Done) can never be satisfied", k, k)
		}
	}
}

// applyCall interprets one synchronous call: WaitGroup primitives, and
// callee summaries for everything passed onward.
func (ctx *wgCtx) applyCall(call *ast.CallExpr, s wgState, report func(token.Pos, string, ...any)) {
	p := ctx.pass
	if key, op, _, ok := wgCall(p, call); ok {
		switch op {
		case "Add":
			n, known := wgAddCount(p, call)
			if !known {
				s.poisonKey(key)
				return
			}
			if n >= 0 {
				s.track(key, int8(n))
				return
			}
			// Add with a negative constant is a Done in disguise.
			ctx.done(key, int8(-n), call.Pos(), s, report)
		case "Done":
			ctx.done(key, 1, call.Pos(), s, report)
		case "Wait":
			if iv, ok := s.iv[key]; ok && iv.lo > 0 {
				if report != nil {
					report(call.Pos(), "%s.Wait() blocks forever: the counter is positive on every path to here and all Done credits are already counted", key)
				}
				// Nothing past this Wait executes in reality; consume the
				// key so the exit check does not re-report the same bug.
				delete(s.iv, key)
			}
		}
		return
	}
	ctx.applyCalleeDeltas(call, s, false, report)
}

// done applies n Done credits, reporting a guaranteed-negative counter. A
// key absent from iv but present in seen is tracked at exactly [0,0]: its
// Adds and Dones cancelled, so one more Done is the panic.
func (ctx *wgCtx) done(key string, n int8, pos token.Pos, s wgState, report func(token.Pos, string, ...any)) {
	if s.poison[key] {
		return
	}
	iv, tracked := s.iv[key]
	if !tracked {
		if !s.seen[key] {
			return
		}
		iv = wgIv{}
	}
	for ; n > 0; n-- {
		if iv.hi <= 0 {
			if report != nil {
				report(pos, "%s.Done() without a matching Add on any path to here: the counter goes negative and panics", key)
			}
			return // do not cascade further reports from the same site
		}
		iv.lo, iv.hi = lbClamp(iv.lo-1), lbClamp(iv.hi-1)
	}
	if iv == (wgIv{}) {
		delete(s.iv, key)
	} else {
		s.iv[key] = iv
	}
}

// applyGo handles a spawned goroutine: its future Done calls are credited
// immediately (the Wait-observable balance), its Adds are reported as racy,
// and anything else it does to a tracked WaitGroup poisons the key.
func (ctx *wgCtx) applyGo(gs *ast.GoStmt, s wgState, report func(token.Pos, string, ...any)) {
	p := ctx.pass
	if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			key, op, baseVar, ok := wgCall(p, call)
			if !ok {
				return true
			}
			switch op {
			case "Done":
				ctx.done(key, 1, gs.Pos(), s, nil)
			case "Add":
				// An Add on a captured WaitGroup races with the parent's
				// Wait; an Add on the goroutine's own local WaitGroup is fine.
				if baseVar != nil && !(baseVar.Pos() > lit.Body.Pos() && baseVar.Pos() < lit.Body.End()) {
					if report != nil {
						report(call.Pos(), "%s.Add() inside the spawned goroutine races with Wait; call Add before the go statement", key)
					}
					s.poisonKey(key)
				}
			}
			return true
		})
		return
	}
	// go callee(...): negative summary deltas are Done credits; positive
	// ones are Adds happening inside the goroutine — the same race.
	ctx.applyCalleeDeltas(gs.Call, s, true, report)
}

// applyDefer credits deferred Done calls (they run before the caller
// resumes, so exit accounting may count them immediately) — directly, in a
// deferred literal, or through a deferred in-package helper.
func (ctx *wgCtx) applyDefer(d *ast.DeferStmt, s wgState, report func(token.Pos, string, ...any)) {
	p := ctx.pass
	if key, op, _, ok := wgCall(p, d.Call); ok {
		if op == "Done" {
			ctx.done(key, 1, d.Pos(), s, report)
		}
		return
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if key, op, _, ok := wgCall(p, call); ok && op == "Done" {
					ctx.done(key, 1, d.Pos(), s, nil)
				}
			}
			return true
		})
		return
	}
	ctx.applyCalleeDeltas(d.Call, s, false, report)
}

// applyCalleeDeltas maps an in-package callee's WaitGroup deltas onto the
// caller's rendered keys; unknown callees (and callees that lost track of a
// parameter) poison every key reachable through the arguments. spawned
// marks `go callee(...)`: negative deltas become immediate credits, while
// positive deltas are reported as the Add-in-goroutine race.
func (ctx *wgCtx) applyCalleeDeltas(call *ast.CallExpr, s wgState, spawned bool, report func(token.Pos, string, ...any)) {
	p := ctx.pass
	argBase := func(idx int) (string, bool) {
		if idx == summary.Recv {
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
				return renderWgBase(sel.X), true
			}
			return "", false
		}
		if idx < 0 || idx >= len(call.Args) {
			return "", false
		}
		return renderWgBase(call.Args[idx]), true
	}
	poisonAll := func() {
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			if _, isMethod := p.Info.Selections[sel]; isMethod {
				s.poisonPrefix(renderWgBase(sel.X))
			}
		}
		for _, arg := range call.Args {
			s.poisonPrefix(renderWgBase(arg))
		}
	}

	sum := p.Sums.ForCall(call)
	if sum == nil {
		poisonAll()
		return
	}
	// Poison what the callee itself lost track of, then apply its deltas.
	uncertain := make(map[int]bool)
	for _, idx := range wgParamIndices(call, sum) {
		if sum.ParamUncertain(idx) {
			uncertain[idx] = true
			if base, ok := argBase(idx); ok {
				s.poisonPrefix(base)
			}
		}
	}
	for ref, d := range sum.WgDelta {
		if uncertain[ref.Param] {
			continue
		}
		base, ok := argBase(ref.Param)
		if !ok {
			continue
		}
		key := base + ref.Path
		switch {
		case spawned && d > 0:
			if report != nil {
				report(call.Pos(), "%s adds to %s inside the spawned goroutine, racing with Wait; Add before the go statement", calleeLabel(call), key)
			}
			s.poisonKey(key)
		case spawned:
			ctx.done(key, int8(-d), call.Pos(), s, nil)
		case d > 0:
			s.track(key, int8(d))
		case d < 0:
			ctx.done(key, int8(-d), call.Pos(), s, report)
		}
	}
}

// wgParamIndices lists the parameter indices (plus Recv for methods) a call
// site actually binds — the ones whose uncertainty matters here.
func wgParamIndices(call *ast.CallExpr, sum *summary.Summary) []int {
	idxs := make([]int, 0, len(call.Args)+1)
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && sel != nil {
		idxs = append(idxs, summary.Recv)
	}
	for i := range call.Args {
		idxs = append(idxs, i)
	}
	return idxs
}

// renderWgBase renders an argument expression as a key base, unwrapping the
// address-of that pointer-passing adds (`&wg` and `wg` name the same
// counter).
func renderWgBase(e ast.Expr) string {
	e = unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = unparen(u.X)
	}
	return types.ExprString(e)
}

// wgCall matches <expr>.Add/Done/Wait() on sync.WaitGroup, returning the
// rendered receiver key and the base identifier's object (nil when the base
// is not a simple identifier chain).
func wgCall(p *Pass, call *ast.CallExpr) (key, op string, baseVar *types.Var, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", nil, false
	}
	switch sel.Sel.Name {
	case "Add", "Done", "Wait":
	default:
		return "", "", nil, false
	}
	t := p.typeOf(sel.X)
	if t == nil {
		return "", "", nil, false
	}
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" || named.Obj().Name() != "WaitGroup" {
		return "", "", nil, false
	}
	return types.ExprString(sel.X), sel.Sel.Name, baseIdentVar(p, sel.X), true
}

// wgAddCount extracts Add's constant argument.
func wgAddCount(p *Pass, call *ast.CallExpr) (int, bool) {
	if len(call.Args) != 1 {
		return 0, false
	}
	tv, ok := p.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, exact := constant.Int64Val(tv.Value)
	if !exact || v <= -lbCap || v >= lbCap {
		return 0, false
	}
	return int(v), true
}

// baseIdentVar walks down an expression to its base identifier's variable.
func baseIdentVar(p *Pass, e ast.Expr) *types.Var {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			v, _ := p.Info.Uses[x].(*types.Var)
			return v
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}
