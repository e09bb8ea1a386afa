package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/callgraph"
	"repro/internal/lint/cfg"
	"repro/internal/lint/flow"
	"repro/internal/lint/summary"
)

// DetOrder reports order-sensitive work fed by map iteration. Map iteration
// order is randomised per run, so report output, float accumulation, or a
// slice built by appending inside a map range carries nondeterminism unless
// a sort dominates every use. The analyzer works in two phases:
//
//   - Inside each map-range body it reports sinks that observe the iteration
//     order directly: emission calls (io/hash Write*, fmt printing, report
//     builders — including in-package helpers whose OrderSensitive summary
//     says they emit), and floating-point += into state declared outside the
//     loop.
//
//   - Slices built by `x = append(x, …)` inside the loop become tainted
//     seeds tracked by a forward CFG dataflow. The taint dies at a
//     sort.*/slices.* call, at an in-package callee whose EstablishesOrder
//     summary proves it sorts that argument (or a field of its receiver),
//     or — conservatively, a documented false-negative — when the value
//     escapes to an unknown external callee. Taint that reaches an emission
//     call, an OrderSensitive callee, or a normal function exit is reported.
//
// Compared to the syntactic maporder rule this replaces, sorts performed by
// helpers or on other statements than the loop's own function are seen, and
// a sort on only one branch protects only that branch.
var DetOrder = &Analyzer{
	Name: "detorder",
	Doc:  "map-order-tainted value reaches an order-sensitive sink or escapes without a dominating sort",
	Run:  runDetOrder,
}

var sortFuncNames = summary.SortFuncNames

func runDetOrder(p *Pass) {
	for _, f := range p.Files {
		for _, fn := range functionsIn(f) {
			detOrderFunc(p, fn)
		}
	}
}

// doSeed is one tainted accumulator: a `x = append(x, …)` inside a map
// range whose target outlives the loop.
type doSeed struct {
	target string // rendering of the accumulated lvalue
	pos    token.Pos
}

// doState maps lvalue renderings to the seed whose taint they carry.
// Renderings (types.ExprString) rather than objects so selector targets like
// `ms.ProblemKeys` and aliases are one key space; the smallest seed index
// wins at joins to keep reports deterministic.
type doState map[string]int

func doClone(s doState) doState {
	c := make(doState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func doEqual(a, b doState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func doJoin(dst, src doState) doState {
	for k, v := range src {
		if dv, ok := dst[k]; !ok || v < dv {
			dst[k] = v
		}
	}
	return dst
}

// doCtx carries the per-function analysis inputs through transfer/replay.
type doCtx struct {
	p     *Pass
	seeds map[*ast.AssignStmt]int
	info  []doSeed
	caps  map[*types.Var]bool
	// reported marks seeds already diagnosed (at a sink or at exit) so one
	// accumulator yields one finding however many paths expose it.
	reported map[int]bool
}

func detOrderFunc(p *Pass, fn funcScope) {
	ctx := &doCtx{
		p:        p,
		seeds:    make(map[*ast.AssignStmt]int),
		caps:     capturedVars(p, fn.body),
		reported: make(map[int]bool),
	}
	detOrderScanRanges(ctx, fn.body)
	if len(ctx.seeds) == 0 {
		return
	}
	g := cfg.New(fn.body)
	prob := flow.Problem[doState]{
		Boundary: func() doState { return doState{} },
		Transfer: func(b *cfg.Block, s doState) doState {
			ctx.transfer(b, s, false)
			return s
		},
		Edge: func(from *cfg.Block, succIdx int, s doState) doState {
			if from.Branch == cfg.Cond && from.Cond != nil && succIdx <= 1 {
				ctx.refine(s, from.Cond, succIdx == 0)
			}
			return s
		},
		Join:  doJoin,
		Equal: doEqual,
		Clone: doClone,
	}
	res := flow.Solve(g, prob)
	for _, b := range g.Reachable() {
		in, ok := res.In[b]
		if !ok {
			continue
		}
		ctx.transfer(b, doClone(in), true)
	}
	// Taint alive at the normal-exit join was never sorted on some path:
	// the slice leaves the function (or the function ends) in map order.
	if exit, ok := res.In[g.Exit]; ok {
		ids := make([]int, 0, len(exit))
		for _, id := range exit {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			if !ctx.reported[id] {
				ctx.reported[id] = true
				p.reportf(ctx.info[id].pos, "%s accumulates map keys in map order and is never sorted afterwards", ctx.info[id].target)
			}
		}
	}
}

// detOrderScanRanges finds every map range in the function body, emits the
// direct-sink diagnostics, and registers append seeds for the dataflow.
// Immediate reports are deduplicated by position: a nested map range is
// scanned both as its own range and as part of the enclosing body.
func detOrderScanRanges(ctx *doCtx, body *ast.BlockStmt) {
	seen := make(map[token.Pos]bool)
	inspectShallow(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, isMap := typeUnder(ctx.p.typeOf(rng.X)).(*types.Map); !isMap {
			return true
		}
		detOrderScanBody(ctx, rng, seen)
		return true
	})
}

func detOrderScanBody(ctx *doCtx, rng *ast.RangeStmt, seen map[token.Pos]bool) {
	p := ctx.p
	report := func(pos token.Pos, format string, args ...any) {
		if !seen[pos] {
			seen[pos] = true
			p.reportf(pos, format, args...)
		}
	}
	inspectShallow(rng.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.CallExpr:
			if summary.IsEmissionCall(p.Info, stmt) {
				report(stmt.Pos(), "output emitted while ranging over a map; iterate sorted keys for deterministic reports")
			} else if sum := p.Sums.ForCall(stmt); sum != nil && sum.OrderSensitive {
				report(stmt.Pos(), "%s emits order-sensitive output, called while ranging over a map; iterate sorted keys for deterministic reports", types.ExprString(stmt.Fun))
			}
		case *ast.AssignStmt:
			detOrderRangeAssign(ctx, rng, stmt, report)
		}
		return true
	})
}

func detOrderRangeAssign(ctx *doCtx, rng *ast.RangeStmt, stmt *ast.AssignStmt, report func(token.Pos, string, ...any)) {
	p := ctx.p
	switch stmt.Tok {
	case token.ASSIGN, token.DEFINE:
		// x = append(x, …) into a slice that outlives the loop: the slice
		// order is the map iteration order until something sorts it.
		if len(stmt.Lhs) != 1 || len(stmt.Rhs) != 1 {
			return
		}
		call, ok := stmt.Rhs[0].(*ast.CallExpr)
		if !ok || !isBuiltinAppend(p, call) || len(call.Args) == 0 {
			return
		}
		target := types.ExprString(stmt.Lhs[0])
		if types.ExprString(call.Args[0]) != target {
			return
		}
		if declaredInside(p, stmt.Lhs[0], rng) {
			return
		}
		// A target captured by a nested literal may be sorted (or emitted)
		// by code this per-function analysis cannot see; stay silent.
		if id, ok := stmt.Lhs[0].(*ast.Ident); ok {
			if v := prObjOf(p, id); v != nil && ctx.caps[v] {
				return
			}
		}
		if _, dup := ctx.seeds[stmt]; !dup {
			ctx.seeds[stmt] = len(ctx.info)
			ctx.info = append(ctx.info, doSeed{target: target, pos: stmt.Pos()})
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		// Floating-point accumulation order changes the low bits of the sum.
		if len(stmt.Lhs) == 1 && isFloat(p.typeOf(stmt.Lhs[0])) && !declaredInside(p, stmt.Lhs[0], rng) {
			report(stmt.Pos(), "floating-point accumulation in map order; iterate sorted keys for reproducible sums")
		}
	}
}

// transfer applies one block's statements to the taint state; with report
// set it also emits the sink diagnostics (the replay convention shared with
// poolrelease).
func (ctx *doCtx) transfer(b *cfg.Block, s doState, report bool) {
	for _, n := range b.Nodes {
		// Calls first: `out = append(out, k)` both mentions calls and
		// rebinds; the call scan must see the pre-assignment state.
		inspectCFGNode(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				ctx.applyCall(call, s, report)
			}
			return true
		})
		switch n := n.(type) {
		case *ast.AssignStmt:
			ctx.applyAssign(n, s)
		case *ast.IncDecStmt:
			doKill(s, types.ExprString(n.X))
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for i, name := range vs.Names {
							doKill(s, name.Name)
							if i < len(vs.Values) {
								doAlias(s, name.Name, vs.Values[i])
							}
						}
					}
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if e != nil {
					doKill(s, types.ExprString(e))
				}
			}
		}
	}
}

// refine narrows taint along branch edges: on an edge that proves
// `len(x) <= 1` the slice has at most one element, so its order is
// deterministic by construction and the taint dies. This is what makes the
// common `if len(out) == 0 { continue }` guard before a sort check clean.
func (ctx *doCtx) refine(s doState, cond ast.Expr, truthy bool) {
	if len(s) == 0 {
		return
	}
	switch e := unparen(cond).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			ctx.refine(s, e.X, !truthy)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			if truthy {
				ctx.refine(s, e.X, true)
				ctx.refine(s, e.Y, true)
			}
		case token.LOR:
			if !truthy {
				ctx.refine(s, e.X, false)
				ctx.refine(s, e.Y, false)
			}
		default:
			if key, ok := doLenAtMostOne(ctx.p, e, truthy); ok {
				doKill(s, key)
			}
		}
	}
}

// doLenAtMostOne decides whether the comparison e, known to evaluate to
// `truthy`, proves len(x) <= 1 for some len-call operand x, returning x's
// rendering.
func doLenAtMostOne(p *Pass, e *ast.BinaryExpr, truthy bool) (string, bool) {
	arg, lit := doLenCmp(p, e.X, e.Y)
	op := e.Op
	if arg == nil {
		// Reversed form (0 == len(x)): flip the comparison.
		if arg, lit = doLenCmp(p, e.Y, e.X); arg == nil {
			return "", false
		}
		switch op {
		case token.LSS:
			op = token.GTR
		case token.GTR:
			op = token.LSS
		case token.LEQ:
			op = token.GEQ
		case token.GEQ:
			op = token.LEQ
		}
	}
	k, ok := doIntLit(lit)
	if !ok {
		return "", false
	}
	proves := false
	switch op {
	case token.EQL:
		proves = truthy && k <= 1
	case token.NEQ:
		proves = !truthy && k == 0
	case token.LSS:
		proves = truthy && k <= 2
	case token.LEQ:
		proves = truthy && k <= 1
	case token.GTR:
		proves = !truthy && k >= 1
	case token.GEQ:
		proves = !truthy && k >= 2
	}
	if !proves {
		return "", false
	}
	return types.ExprString(unparen(arg)), true
}

// doLenCmp matches `len(arg)` on the left and returns (arg, right).
func doLenCmp(p *Pass, left, right ast.Expr) (ast.Expr, ast.Expr) {
	call, ok := unparen(left).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil, nil
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "len" {
		return nil, nil
	}
	if b, ok := p.Info.ObjectOf(id).(*types.Builtin); !ok || b.Name() != "len" {
		return nil, nil
	}
	return call.Args[0], right
}

func doIntLit(e ast.Expr) (int, bool) {
	lit, ok := unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return 0, false
	}
	switch lit.Value {
	case "0":
		return 0, true
	case "1":
		return 1, true
	case "2":
		return 2, true
	}
	return 0, false
}

// applyAssign kills rebound lvalues and propagates taint through aliases:
// `y := x` and `y = append(x, …)` give y x's taint.
func (ctx *doCtx) applyAssign(n *ast.AssignStmt, s doState) {
	if id, seeded := ctx.seeds[n]; seeded {
		s[ctx.info[id].target] = id
		return
	}
	if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
		if len(n.Lhs) == 1 {
			doKill(s, types.ExprString(n.Lhs[0]))
		}
		return
	}
	for i, lhs := range n.Lhs {
		lr := types.ExprString(lhs)
		var rhs ast.Expr
		if len(n.Rhs) == len(n.Lhs) {
			rhs = n.Rhs[i]
		}
		doKill(s, lr)
		if rhs != nil {
			doAlias(s, lr, rhs)
		}
	}
}

// doAlias copies taint from rhs onto key: a direct alias, or an append from
// a tainted base (`sorted := append([]string(nil), tainted...)` keeps the
// map order).
func doAlias(s doState, key string, rhs ast.Expr) {
	rhs = unparen(rhs)
	if id, ok := s[types.ExprString(rhs)]; ok {
		s[key] = id
		return
	}
	if call, ok := rhs.(*ast.CallExpr); ok && len(call.Args) > 0 {
		if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" {
			for _, arg := range call.Args {
				if id, ok := s[types.ExprString(unparen(arg))]; ok {
					s[key] = id
					return
				}
			}
		}
	}
}

// doKill drops the key and everything rendered beneath it (`ms` also kills
// `ms.ProblemKeys`, `shards` also kills `shards[i]`).
func doKill(s doState, key string) {
	for k := range s {
		if k == key || strings.HasPrefix(k, key+".") || strings.HasPrefix(k, key+"[") {
			delete(s, k)
		}
	}
}

// applyCall is the heart of the dataflow: sorts kill taint, sinks report it,
// unknown callees swallow it.
func (ctx *doCtx) applyCall(call *ast.CallExpr, s doState, report bool) {
	if len(s) == 0 {
		return
	}
	p := ctx.p
	// sort.X(arg) / slices.X(arg): the argument is ordered from here on. A
	// one-argument conversion (sort.Sort(byLen(keys))) is looked through.
	if pkg, name := calleePkgFunc(p, call); (pkg == "sort" || pkg == "slices") && sortFuncNames[name] && len(call.Args) > 0 {
		arg := unparen(call.Args[0])
		if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 {
			if tv, isConv := p.Info.Types[conv.Fun]; isConv && tv.IsType() {
				arg = unparen(conv.Args[0])
			}
		}
		doKill(s, types.ExprString(arg))
		return
	}
	if isBuiltinAppend(p, call) {
		return
	}
	// Emission sink: a tainted slice handed to Write*/fmt/report builders is
	// observable in map order.
	if summary.IsEmissionCall(p.Info, call) {
		ctx.sinkArgs(call, s, report, "emitted")
		return
	}
	callee := callgraph.Callee(p.Info, call)
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	if callee == nil || p.Sums.Of(callee) == nil {
		if isBuiltinName(p, call) {
			return
		}
		// Unknown or external callee: it may sort, store, or emit the value.
		// Dropping the taint is the sound-for-false-positives choice; an
		// external emitter is a documented false negative.
		ctx.killCallOperands(call, s)
		return
	}
	sum := p.Sums.Of(callee)
	if sum.OrderSensitive {
		ctx.sinkArgs(call, s, report, "passed to an order-sensitive callee")
	}
	// Helper-performed sorts: EstablishesOrder refs name the argument (or a
	// field path under the receiver/argument) the callee sorts on every
	// return.
	for ref := range sum.EstablishesOrder {
		if base, ok := doRefBase(call, ref); ok {
			doKill(s, base+ref.Path)
		}
	}
	// A parameter the summary lost track of may have been sorted or stored.
	for i, arg := range call.Args {
		if _, tainted := s[types.ExprString(unparen(arg))]; tainted && sum.ParamUncertain(i) {
			doKill(s, types.ExprString(unparen(arg)))
		}
	}
}

// sinkArgs reports (once per seed) every tainted argument of an
// order-sensitive call, then kills the taint — one finding per defect.
func (ctx *doCtx) sinkArgs(call *ast.CallExpr, s doState, report bool, how string) {
	for _, arg := range call.Args {
		ar := types.ExprString(unparen(arg))
		id, tainted := s[ar]
		if !tainted {
			continue
		}
		if report && !ctx.reported[id] {
			ctx.reported[id] = true
			ctx.p.reportf(arg.Pos(), "%s accumulates map keys in map order and is %s without an intervening sort", ctx.info[id].target, how)
		}
		doKill(s, ar)
	}
}

// killCallOperands drops taint on every argument and on the receiver of an
// unresolvable call.
func (ctx *doCtx) killCallOperands(call *ast.CallExpr, s doState) {
	for _, arg := range call.Args {
		doKill(s, types.ExprString(unparen(arg)))
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		doKill(s, types.ExprString(unparen(sel.X)))
	}
}

// doRefBase renders the call operand a summary Ref is rooted at.
func doRefBase(call *ast.CallExpr, ref summary.Ref) (string, bool) {
	if ref.Param == summary.Recv {
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			return types.ExprString(unparen(sel.X)), true
		}
		return "", false
	}
	if ref.Param >= 0 && ref.Param < len(call.Args) {
		return types.ExprString(unparen(call.Args[ref.Param])), true
	}
	return "", false
}

// isBuiltinName reports calls to universe builtins (len, cap, delete, …)
// which never take ownership of their operands.
func isBuiltinName(p *Pass, call *ast.CallExpr) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, isB := p.Info.ObjectOf(id).(*types.Builtin)
	return isB
}

// declaredInside reports whether e is an identifier whose declaration lies
// within the range statement (loop-local state is order-independent by
// construction).
func declaredInside(p *Pass, e ast.Expr, rng *ast.RangeStmt) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := p.Info.ObjectOf(id)
	return obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()
}

func isBuiltinAppend(p *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.Info.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// calleePkgFunc returns (package path's base name, function name) for calls
// of the form pkg.Func, and ("", method or func name) otherwise.
func calleePkgFunc(p *Pass, call *ast.CallExpr) (pkg, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		if id, ok := call.Fun.(*ast.Ident); ok {
			return "", id.Name
		}
		return "", ""
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := p.Info.ObjectOf(id).(*types.PkgName); ok {
			return pn.Imported().Name(), sel.Sel.Name
		}
	}
	return "", sel.Sel.Name
}

// inspectShallow walks n without descending into nested function literals.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		return fn(m)
	})
}

// typeUnder returns t's underlying type (nil-safe).
func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}
