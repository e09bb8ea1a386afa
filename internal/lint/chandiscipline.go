package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/cfg"
	"repro/internal/lint/flow"
	"repro/internal/lint/summary"
)

// ChanDiscipline reports channel operations that are guaranteed to panic or
// block forever: send on a closed channel, double close (direct, via an
// in-package helper, or by a deferred close running after an explicit one),
// close of a nil channel, and send/receive/range on a definitely-nil
// channel outside a select. The analysis is definite-only: it tracks a
// three-state machine (nil / open / closed) per local channel variable over
// the CFG and reports only when the bad state holds on every path — channel
// values cannot be "un-closed" or "un-nil'd" by a callee, so a definite
// state can only be invalidated by an assignment the analysis sees.
//
// The nil-channel-in-select idiom is exempt by design: disabling a case by
// setting its channel to nil is how select loops retire a source, so comm
// clauses never get nil-blocks reports (send on a closed channel still
// panics inside select and is still reported).
var ChanDiscipline = &Analyzer{
	Name: "chandiscipline",
	Doc:  "channel operation that must panic (closed/nil close, send on closed) or block forever (nil send/receive)",
	Run:  runChanDiscipline,
}

// cdSt is the definite state of one channel variable; untracked/unknown
// variables are simply absent.
type cdSt uint8

const (
	cdNil cdSt = iota + 1
	cdOpen
	cdClosed
)

func (s cdSt) String() string {
	switch s {
	case cdNil:
		return "nil"
	case cdOpen:
		return "open"
	case cdClosed:
		return "closed"
	}
	return "unknown"
}

// cdState maps channel variables to their definite state, plus a must-flag
// for channels with a pending deferred close.
type cdState struct {
	st          map[*types.Var]cdSt
	deferClosed map[*types.Var]bool
}

func cdNew() cdState {
	return cdState{st: make(map[*types.Var]cdSt), deferClosed: make(map[*types.Var]bool)}
}

func cdClone(s cdState) cdState {
	c := cdState{
		st:          make(map[*types.Var]cdSt, len(s.st)),
		deferClosed: make(map[*types.Var]bool, len(s.deferClosed)),
	}
	for k, v := range s.st {
		c.st[k] = v
	}
	for k := range s.deferClosed {
		c.deferClosed[k] = true
	}
	return c
}

func cdEqual(a, b cdState) bool {
	if len(a.st) != len(b.st) || len(a.deferClosed) != len(b.deferClosed) {
		return false
	}
	for k, v := range a.st {
		if b.st[k] != v {
			return false
		}
	}
	for k := range a.deferClosed {
		if !b.deferClosed[k] {
			return false
		}
	}
	return true
}

// cdJoin keeps only the facts the paths agree on (must semantics).
func cdJoin(dst, src cdState) cdState {
	for k, v := range dst.st {
		if src.st[k] != v {
			delete(dst.st, k)
		}
	}
	for k := range dst.deferClosed {
		if !src.deferClosed[k] {
			delete(dst.deferClosed, k)
		}
	}
	return dst
}

func runChanDiscipline(p *Pass) {
	for _, f := range p.Files {
		for _, fn := range functionsIn(f) {
			chanDisciplineFunc(p, fn)
		}
	}
}

// cdCtx is the per-function context: which variables are trackable and
// which statements are select comm clauses (exempt from nil-blocks).
type cdCtx struct {
	pass      *Pass
	untracked map[*types.Var]bool
	commStmt  map[ast.Node]bool
	// rangeX marks range operands: the CFG records them as bare expression
	// nodes evaluated once before the loop, which is exactly where a nil
	// channel blocks.
	rangeX map[ast.Node]bool
}

func chanDisciplineFunc(p *Pass, fn funcScope) {
	ctx := &cdCtx{
		pass:      p,
		untracked: capturedVars(p, fn.body),
		commStmt:  make(map[ast.Node]bool),
		rangeX:    make(map[ast.Node]bool),
	}
	ast.Inspect(fn.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate scope
		case *ast.UnaryExpr:
			// &ch escapes the variable itself: anyone can swap the value.
			if n.Op == token.AND {
				if v := chanIdentVar(p, n.X); v != nil {
					ctx.untracked[v] = true
				}
			}
		case *ast.SelectStmt:
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					ctx.commStmt[cc.Comm] = true
				}
			}
		case *ast.RangeStmt:
			if isChanType(p.typeOf(n.X)) {
				ctx.rangeX[n.X] = true
			}
		}
		return true
	})

	g := cfg.New(fn.body)
	prob := flow.Problem[cdState]{
		Boundary: cdNew,
		Transfer: func(b *cfg.Block, s cdState) cdState {
			ctx.transfer(b, g, s, nil)
			return s
		},
		Join:  cdJoin,
		Equal: cdEqual,
		Clone: cdClone,
	}
	res := flow.Solve(g, prob)
	for _, b := range g.Reachable() {
		in, ok := res.In[b]
		if !ok {
			continue
		}
		ctx.transfer(b, g, cdClone(in), p.reportf)
	}
}

func (ctx *cdCtx) transfer(b *cfg.Block, g *cfg.Graph, s cdState, report func(token.Pos, string, ...any)) {
	for _, n := range b.Nodes {
		switch n := n.(type) {
		case *ast.DeferStmt:
			ctx.applyDefer(n, s, report)
			continue
		case *ast.RangeStmt:
			// Per-iteration key/value binding only; the operand was handled
			// as a bare expression node before the loop head.
			continue
		}
		if ctx.rangeX[n] {
			if v := ctx.tracked(n.(ast.Expr)); v != nil && s.st[v] == cdNil && report != nil {
				report(n.Pos(), "range over nil channel %s blocks forever", v.Name())
			}
			continue
		}

		exempt := ctx.commStmt[n]
		inspectCFGNode(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.CallExpr:
				ctx.applyCall(m, s, report)
			case *ast.SendStmt:
				if v := ctx.tracked(m.Chan); v != nil {
					switch s.st[v] {
					case cdClosed:
						if report != nil {
							report(m.Pos(), "send on %s which is closed on every path to here (panics)", v.Name())
						}
					case cdNil:
						if report != nil && !exempt {
							report(m.Pos(), "send on nil channel %s blocks forever", v.Name())
						}
					}
				}
			case *ast.UnaryExpr:
				if m.Op == token.ARROW {
					if v := ctx.tracked(m.X); v != nil && s.st[v] == cdNil {
						if report != nil && !exempt {
							report(m.Pos(), "receive from nil channel %s blocks forever", v.Name())
						}
					}
				}
			}
			return true
		})

		// State transitions after the node's reads.
		switch n := n.(type) {
		case *ast.AssignStmt:
			ctx.applyAssign(n, s)
		case *ast.DeclStmt:
			ctx.applyDecl(n, s)
		case *ast.ReturnStmt:
			// The result expressions (inspected above) are evaluated first;
			// then the deferred closes fire.
			if report != nil {
				ctx.checkExit(s, n.Pos(), report)
			}
		}
	}
	if report != nil && blockFallsToExit(b, g) {
		ctx.checkExit(s, g.End, report)
	}
}

// checkExit fires the deferred closes: one running on a channel already
// definitely closed is a guaranteed panic at return.
func (ctx *cdCtx) checkExit(s cdState, pos token.Pos, report func(token.Pos, string, ...any)) {
	for v := range s.deferClosed {
		if s.st[v] == cdClosed {
			report(pos, "deferred close of %s runs here after %s is already closed on every path (panics)", v.Name(), v.Name())
		}
	}
}

// applyDefer records deferred closes (direct or inside a deferred literal)
// without transitioning the state — the close runs at function exit.
func (ctx *cdCtx) applyDefer(d *ast.DeferStmt, s cdState, report func(token.Pos, string, ...any)) {
	noteClose := func(call *ast.CallExpr) {
		v := ctx.closedChan(call)
		if v == nil {
			return
		}
		if s.deferClosed[v] {
			if report != nil {
				report(call.Pos(), "close of %s deferred twice; the second deferred close panics", v.Name())
			}
			return
		}
		s.deferClosed[v] = true
	}
	noteClose(d.Call)
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				noteClose(call)
			}
			return true
		})
	}
}

// closedChan returns the tracked channel variable a call closes, for the
// builtin close only.
func (ctx *cdCtx) closedChan(call *ast.CallExpr) *types.Var {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "close" || len(call.Args) != 1 {
		return nil
	}
	if _, isBuiltin := ctx.pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return nil
	}
	return ctx.tracked(call.Args[0])
}

// applyCall handles the builtin close and in-package callees with a proven
// Closes fact. Other calls cannot invalidate a definite state: a callee
// receives a copy of the channel value and can close the channel (Open
// becomes a miss, never a false report) but can never reopen it or change
// the variable.
func (ctx *cdCtx) applyCall(call *ast.CallExpr, s cdState, report func(token.Pos, string, ...any)) {
	if v := ctx.closedChan(call); v != nil {
		switch s.st[v] {
		case cdClosed:
			if report != nil {
				report(call.Pos(), "close of %s which is already closed on every path to here (panics)", v.Name())
			}
		case cdNil:
			if report != nil {
				report(call.Pos(), "close of nil channel %s (panics)", v.Name())
			}
		}
		s.st[v] = cdClosed
		return
	}
	sum := ctx.pass.Sums.ForCall(call)
	if sum == nil {
		return
	}
	for i, arg := range call.Args {
		v := ctx.tracked(arg)
		if v == nil {
			continue
		}
		if sum.Closes[summary.Ref{Param: i}] {
			if s.st[v] == cdClosed && report != nil {
				report(call.Pos(), "%s closes %s which is already closed on every path to here (panics)", calleeLabel(call), v.Name())
			}
			s.st[v] = cdClosed
		}
	}
}

// applyAssign transitions the states of assigned channel variables.
func (ctx *cdCtx) applyAssign(asg *ast.AssignStmt, s cdState) {
	if len(asg.Lhs) != len(asg.Rhs) {
		// Multi-value form (v, ok := <-ch, or a call): results unknowable.
		for _, lhs := range asg.Lhs {
			if v := chanIdentVar(ctx.pass, lhs); v != nil {
				delete(s.st, v)
			}
		}
		return
	}
	for i, lhs := range asg.Lhs {
		v := chanIdentVar(ctx.pass, lhs)
		if v == nil || ctx.untracked[v] {
			continue
		}
		if st, ok := ctx.classify(asg.Rhs[i], s); ok {
			s.st[v] = st
		} else {
			delete(s.st, v)
		}
	}
}

func (ctx *cdCtx) applyDecl(decl *ast.DeclStmt, s cdState) {
	gen, ok := decl.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gen.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			v, ok := ctx.pass.Info.Defs[name].(*types.Var)
			if !ok || ctx.untracked[v] || !isChanType(v.Type()) {
				continue
			}
			if len(vs.Values) == 0 {
				s.st[v] = cdNil // var ch chan T: the zero value is nil
				continue
			}
			if i < len(vs.Values) {
				if st, ok := ctx.classify(vs.Values[i], s); ok {
					s.st[v] = st
				}
			}
		}
	}
}

// classify derives the definite state a right-hand side produces.
func (ctx *cdCtx) classify(rhs ast.Expr, s cdState) (cdSt, bool) {
	switch e := unparen(rhs).(type) {
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" {
			if _, isBuiltin := ctx.pass.Info.Uses[id].(*types.Builtin); isBuiltin {
				return cdOpen, true
			}
		}
	case *ast.Ident:
		if _, isNil := ctx.pass.Info.Uses[e].(*types.Nil); isNil {
			return cdNil, true
		}
		// Copy of another tracked channel: aliases share close-state, and a
		// copied definite state stays definite (it can only go stale in the
		// safe direction — see applyCall).
		if v := ctx.tracked(e); v != nil {
			if st, ok := s.st[v]; ok {
				return st, true
			}
		}
	}
	return 0, false
}

// tracked resolves e to a trackable channel variable.
func (ctx *cdCtx) tracked(e ast.Expr) *types.Var {
	v := chanIdentVar(ctx.pass, e)
	if v == nil || ctx.untracked[v] {
		return nil
	}
	return v
}

// chanIdentVar returns the channel-typed local/param variable e names.
func chanIdentVar(p *Pass, e ast.Expr) *types.Var {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := p.Info.Uses[id].(*types.Var)
	if !ok {
		if v, ok = p.Info.Defs[id].(*types.Var); !ok {
			return nil
		}
	}
	if v.IsField() || !isChanType(v.Type()) {
		return nil
	}
	return v
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// calleeLabel renders a call's function expression for diagnostics.
func calleeLabel(call *ast.CallExpr) string {
	return types.ExprString(call.Fun)
}
