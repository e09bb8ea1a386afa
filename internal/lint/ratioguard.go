package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/cfg"
	"repro/internal/lint/flow"
)

// RatioGuard reports divisions whose denominator is not proven non-zero on
// every path reaching them. The pipeline's metric ratios are all of the
// shape problems/total-sessions; on a starved epoch (collector restart,
// shed load) the totals are zero and an unguarded ratio silently goes
// NaN/Inf — or, for integer division, panics. The paper's verdicts are only
// reproducible if those ratios are guarded at the computation site, not
// papered over downstream.
//
// The analysis is a forward must-guard problem over the CFG: branch edges
// contribute facts ("len(buf) is non-zero", "n ≥ 2") learned from the
// branch condition — including through &&/|| chains, negation, `eps.Zero`
// calls, and the early-return idiom — and assignments of constants
// contribute clamp facts (`if steps < 1 { steps = 1 }`). Joins intersect,
// so a fact holds only when every path establishes it. In scope are
// divisions (and modulo) whose denominator is an integer expression, a
// numeric conversion of one (`float64(n)`), or a local alias of such a
// conversion (`n := float64(len(s))` … `x / n`); constant denominators are
// exempt. Float-to-float arithmetic is out of scope (see DESIGN.md for the
// false-negative inventory).
var RatioGuard = &Analyzer{
	Name: "ratioguard",
	Doc:  "division not dominated by a non-zero test of its denominator",
	Run:  runRatioGuard,
}

// rgFact is what the analysis knows about one expression (keyed by its
// rendered source form): proven non-zero, and/or an integer lower bound.
type rgFact struct {
	nz    bool
	lb    int64
	hasLB bool
	// deps are the base identifiers the expression reads; assigning to any
	// of them invalidates the fact. Never mutated after creation.
	deps []string
}

// rgAlias records `x := float64(inner)` so a later `y / x` can be guarded
// by facts about inner.
type rgAlias struct {
	inner    ast.Expr
	innerStr string
	deps     []string
}

type rgState struct {
	facts map[string]rgFact
	alias map[string]rgAlias
}

func rgNew() rgState {
	return rgState{facts: make(map[string]rgFact), alias: make(map[string]rgAlias)}
}

func rgClone(s rgState) rgState {
	c := rgState{
		facts: make(map[string]rgFact, len(s.facts)),
		alias: make(map[string]rgAlias, len(s.alias)),
	}
	for k, v := range s.facts {
		c.facts[k] = v
	}
	for k, v := range s.alias {
		c.alias[k] = v
	}
	return c
}

func rgEqual(a, b rgState) bool {
	if len(a.facts) != len(b.facts) || len(a.alias) != len(b.alias) {
		return false
	}
	for k, av := range a.facts {
		bv, ok := b.facts[k]
		if !ok || av.nz != bv.nz || av.hasLB != bv.hasLB || av.lb != bv.lb {
			return false
		}
	}
	for k, av := range a.alias {
		bv, ok := b.alias[k]
		if !ok || av.innerStr != bv.innerStr {
			return false
		}
	}
	return true
}

// rgJoin intersects: a fact survives only if both paths establish it.
func rgJoin(dst, src rgState) rgState {
	for k, dv := range dst.facts {
		sv, ok := src.facts[k]
		if !ok {
			delete(dst.facts, k)
			continue
		}
		dv.nz = dv.nz && sv.nz
		if dv.hasLB && sv.hasLB {
			if sv.lb < dv.lb {
				dv.lb = sv.lb
			}
		} else {
			dv.hasLB, dv.lb = false, 0
		}
		if !dv.nz && !dv.hasLB {
			delete(dst.facts, k)
			continue
		}
		dst.facts[k] = dv
	}
	for k, dv := range dst.alias {
		if sv, ok := src.alias[k]; !ok || sv.innerStr != dv.innerStr {
			delete(dst.alias, k)
		}
	}
	return dst
}

func runRatioGuard(p *Pass) {
	for _, f := range p.Files {
		for _, fn := range functionsIn(f) {
			ratioGuardFunc(p, fn)
		}
	}
}

func ratioGuardFunc(p *Pass, fn funcScope) {
	g := cfg.New(fn.body)
	prob := flow.Problem[rgState]{
		Boundary: rgNew,
		Transfer: func(b *cfg.Block, s rgState) rgState {
			for _, n := range b.Nodes {
				rgTransferNode(p, n, s, false)
			}
			return s
		},
		Edge: func(from *cfg.Block, succIdx int, s rgState) rgState {
			if from.Branch == cfg.Cond && from.Cond != nil && succIdx <= 1 {
				rgDerive(p, s, from.Cond, succIdx == 0)
			}
			return s
		},
		Join:  rgJoin,
		Equal: rgEqual,
		Clone: rgClone,
	}
	res := flow.Solve(g, prob)
	for _, b := range g.Reachable() {
		in, ok := res.In[b]
		if !ok {
			continue
		}
		s := rgClone(in)
		for _, n := range b.Nodes {
			rgCheckDivisions(p, n, s)
			rgTransferNode(p, n, s, true)
		}
	}
}

// rgTransferNode applies one node's kills and gens. The second pass (replay
// with reporting) passes reporting=true only so the function stays
// symmetric; the transfer itself never reports.
func rgTransferNode(p *Pass, n ast.Node, s rgState, _ bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		names := make([]string, 0, len(n.Lhs))
		for _, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if id.Name != "_" {
					names = append(names, id.Name)
				}
				continue
			}
			// Writing through a selector/index/deref (s.n = 0) mutates state
			// reachable from its base identifiers: every fact depending on
			// them is stale now. Killing by base is coarser than killing the
			// exact path, but a stale "non-zero" fact surviving here is a
			// missed division-by-zero — the expensive direction.
			names = append(names, rgBaseIdents(lhs)...)
		}
		rgKill(s, names)
		if len(n.Lhs) == len(n.Rhs) && (n.Tok == token.ASSIGN || n.Tok == token.DEFINE) {
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				rgGenAssign(p, s, id.Name, n.Rhs[i])
			}
		}

	case *ast.IncDecStmt:
		if id, ok := unparen(n.X).(*ast.Ident); ok {
			f, ok := s.facts[id.Name]
			rgKill(s, []string{id.Name})
			if ok && f.hasLB {
				if n.Tok == token.INC {
					f.lb++
				} else {
					f.lb--
				}
				f.nz = f.lb >= 1
				if f.nz || f.hasLB {
					s.facts[id.Name] = rgFact{nz: f.nz, lb: f.lb, hasLB: true, deps: []string{id.Name}}
				}
			}
		} else {
			// x.f++ etc: kill anything depending on the base.
			rgKill(s, rgBaseIdents(n.X))
		}

	case *ast.RangeStmt:
		var names []string
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				names = append(names, id.Name)
			}
		}
		rgKill(s, names)

	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				var names []string
				for _, name := range vs.Names {
					if name.Name != "_" {
						names = append(names, name.Name)
					}
				}
				rgKill(s, names)
				if len(vs.Values) == len(vs.Names) {
					for i, name := range vs.Names {
						if name.Name != "_" {
							rgGenAssign(p, s, name.Name, vs.Values[i])
						}
					}
				}
			}
		}
	}
}

// rgKill drops facts and aliases that read any of the assigned names.
func rgKill(s rgState, names []string) {
	if len(names) == 0 {
		return
	}
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	for k, f := range s.facts {
		for _, d := range f.deps {
			if set[d] {
				delete(s.facts, k)
				break
			}
		}
	}
	for k, a := range s.alias {
		if set[k] {
			delete(s.alias, k)
			continue
		}
		for _, d := range a.deps {
			if set[d] {
				delete(s.alias, k)
				break
			}
		}
	}
}

// rgGenAssign records what an assignment establishes: constant values give
// non-zero/lower-bound facts (the clamp idiom), numeric conversions of
// integer expressions create aliases, and identifier copies inherit.
func rgGenAssign(p *Pass, s rgState, name string, rhs ast.Expr) {
	rhs = unparen(rhs)
	if cv := rgConstValue(p, rhs); cv != nil {
		f := rgFact{deps: []string{name}}
		switch cv.Kind() {
		case constant.Int:
			if iv, ok := constant.Int64Val(cv); ok {
				f.lb, f.hasLB = iv, true
				f.nz = iv != 0
			}
		case constant.Float:
			f.nz = constant.Sign(cv) != 0
		default:
			return
		}
		if f.nz || f.hasLB {
			s.facts[name] = f
		}
		return
	}
	if arg, ok := rgNumericConv(p, rhs); ok && rgIsInteger(p, arg) {
		inner := strings.TrimSpace(types.ExprString(arg))
		s.alias[name] = rgAlias{
			inner:    arg,
			innerStr: inner,
			deps:     append(rgBaseIdents(arg), name),
		}
		return
	}
	if cl, ok := rhs.(*ast.CompositeLit); ok && len(cl.Elts) > 0 {
		// `xs := []T{a, b, c}` proves len(xs) ≥ 1 until xs is reassigned —
		// the rotation idiom `xs[i%len(xs)]` is then safe. (Keyed array
		// literals could have fewer than len(Elts) distinct entries, so only
		// non-emptiness is recorded, not the count.)
		s.facts["len("+name+")"] = rgFact{nz: true, lb: 1, hasLB: true, deps: []string{name}}
		return
	}
	if id, ok := rhs.(*ast.Ident); ok {
		if f, ok := s.facts[id.Name]; ok {
			s.facts[name] = rgFact{nz: f.nz, lb: f.lb, hasLB: f.hasLB, deps: []string{name, id.Name}}
		}
		if a, ok := s.alias[id.Name]; ok {
			s.alias[name] = rgAlias{inner: a.inner, innerStr: a.innerStr, deps: append(append([]string{}, a.deps...), name)}
		}
	}
}

// rgDerive refines the state along one branch edge from a condition.
func rgDerive(p *Pass, s rgState, cond ast.Expr, truthy bool) {
	cond = unparen(cond)
	switch e := cond.(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			if truthy {
				rgDerive(p, s, e.X, true)
				rgDerive(p, s, e.Y, true)
			}
		case token.LOR:
			if !truthy {
				rgDerive(p, s, e.X, false)
				rgDerive(p, s, e.Y, false)
			}
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			if cv := rgConstValue(p, e.Y); cv != nil {
				rgDeriveCmp(s, e.X, e.Op, cv, truthy)
			} else if cv := rgConstValue(p, e.X); cv != nil {
				rgDeriveCmp(s, e.Y, rgMirror(e.Op), cv, truthy)
			}
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			rgDerive(p, s, e.X, !truthy)
		}
	case *ast.CallExpr:
		// eps.Zero(x) false means x is (tolerance-)non-zero.
		if !truthy && rgIsEpsZero(p, e) && len(e.Args) == 1 {
			rgSetNZ(s, e.Args[0])
		}
	}
}

// rgMirror flips a comparison for the constant-on-the-left form.
func rgMirror(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	}
	return op
}

// rgNegate rewrites `!(X op C)` as `X op' C`.
func rgNegate(op token.Token) token.Token {
	switch op {
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	case token.LSS:
		return token.GEQ
	case token.GEQ:
		return token.LSS
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	}
	return op
}

func rgDeriveCmp(s rgState, x ast.Expr, op token.Token, c constant.Value, truthy bool) {
	if !truthy {
		op = rgNegate(op)
	}
	if c.Kind() != constant.Int && c.Kind() != constant.Float {
		return
	}
	sign := constant.Sign(c)
	var k int64
	isInt := false
	if c.Kind() == constant.Int {
		k, isInt = constant.Int64Val(c)
	}
	key := strings.TrimSpace(types.ExprString(unparen(x)))
	f := s.facts[key]
	f.deps = rgBaseIdents(x)
	switch op {
	case token.NEQ:
		if sign == 0 {
			f.nz = true
		}
	case token.EQL:
		if sign != 0 {
			f.nz = true
		}
		if isInt {
			f.lb, f.hasLB = k, true
		}
	case token.GTR:
		if isInt {
			if !f.hasLB || k+1 > f.lb {
				f.lb, f.hasLB = k+1, true
			}
		}
		if sign >= 0 {
			f.nz = true
		}
	case token.GEQ:
		if isInt {
			if !f.hasLB || k > f.lb {
				f.lb, f.hasLB = k, true
			}
		}
		if sign > 0 {
			f.nz = true
		}
	case token.LSS:
		if sign <= 0 {
			f.nz = true
		}
	case token.LEQ:
		if sign < 0 {
			f.nz = true
		}
	}
	if f.nz || f.hasLB {
		s.facts[key] = f
	}
}

func rgSetNZ(s rgState, x ast.Expr) {
	key := strings.TrimSpace(types.ExprString(unparen(x)))
	f := s.facts[key]
	f.nz = true
	f.deps = rgBaseIdents(x)
	s.facts[key] = f
}

// rgCheckDivisions reports in-scope unguarded divisions within node n,
// using the facts in force before n executes.
func rgCheckDivisions(p *Pass, n ast.Node, s rgState) {
	check := func(den ast.Expr) {
		if den == nil {
			return
		}
		rgCheckDen(p, den, s)
	}
	if asg, ok := n.(*ast.AssignStmt); ok && (asg.Tok == token.QUO_ASSIGN || asg.Tok == token.REM_ASSIGN) && len(asg.Rhs) == 1 {
		check(asg.Rhs[0])
	}
	inspectCFGNode(n, func(m ast.Node) bool {
		if be, ok := m.(*ast.BinaryExpr); ok && (be.Op == token.QUO || be.Op == token.REM) {
			check(be.Y)
		}
		return true
	})
}

func rgCheckDen(p *Pass, den ast.Expr, s rgState) {
	den = unparen(den)
	if rgConstValue(p, den) != nil {
		return // constant; a constant zero denominator cannot compile
	}
	// Collect the guard subjects: the denominator itself, the operand of a
	// numeric conversion, and what a recorded alias stands for.
	var subjects []ast.Expr
	denStr := strings.TrimSpace(types.ExprString(den))
	if arg, ok := rgNumericConv(p, den); ok {
		if rgConstValue(p, arg) != nil {
			return
		}
		if !rgIsInteger(p, arg) {
			return // float-to-float conversion: out of scope
		}
		subjects = append(subjects, den, arg)
	} else if rgIsInteger(p, den) {
		subjects = append(subjects, den)
	} else if id, ok := den.(*ast.Ident); ok {
		a, ok := s.alias[id.Name]
		if !ok {
			return // float variable with unknown provenance: out of scope
		}
		subjects = append(subjects, den, a.inner)
		if f, ok := s.facts[a.innerStr]; ok && (f.nz || (f.hasLB && f.lb >= 1)) {
			return
		}
	} else {
		return // float expression: out of scope
	}
	for _, sub := range subjects {
		if rgSubjectGuarded(p, s, sub) {
			return
		}
	}
	p.reportf(den.Pos(), "division by %s is not dominated by a non-zero guard on every path (NaN/Inf or panic on starved input); add a zero test", denStr)
}

// rgSubjectGuarded reports whether the facts prove sub non-zero: directly,
// or structurally for `X - k` / `X + k` with a known lower bound on X.
func rgSubjectGuarded(p *Pass, s rgState, sub ast.Expr) bool {
	sub = unparen(sub)
	key := strings.TrimSpace(types.ExprString(sub))
	if f, ok := s.facts[key]; ok && (f.nz || (f.hasLB && f.lb >= 1)) {
		return true
	}
	if be, ok := sub.(*ast.BinaryExpr); ok && (be.Op == token.SUB || be.Op == token.ADD) {
		x, c := be.X, rgConstValue(p, be.Y)
		if c == nil && be.Op == token.ADD {
			x, c = be.Y, rgConstValue(p, be.X)
		}
		if c != nil && c.Kind() == constant.Int {
			if k, ok := constant.Int64Val(c); ok {
				xf, have := s.facts[strings.TrimSpace(types.ExprString(unparen(x)))]
				if have && xf.hasLB {
					if be.Op == token.SUB && xf.lb >= k+1 {
						return true
					}
					if be.Op == token.ADD && xf.lb >= 1-k {
						return true
					}
				}
			}
		}
	}
	return false
}

func rgConstValue(p *Pass, e ast.Expr) constant.Value {
	if tv, ok := p.Info.Types[e]; ok && tv.Value != nil {
		return tv.Value
	}
	return nil
}

// rgNumericConv matches a conversion to a numeric type, returning its
// operand.
func rgNumericConv(p *Pass, e ast.Expr) (ast.Expr, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil, false
	}
	tv, ok := p.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return nil, false
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); !ok || b.Info()&types.IsNumeric == 0 {
		return nil, false
	}
	return call.Args[0], true
}

func rgIsInteger(p *Pass, e ast.Expr) bool {
	t := p.typeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// rgIsEpsZero matches eps.Zero(x): a call to a function named Zero from a
// package whose import path is (or ends in) "eps" — the repo's tolerance
// helper — including unqualified calls inside the eps package itself.
func rgIsEpsZero(p *Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fun.Sel.Name != "Zero" {
			return false
		}
		id, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		pn, ok := p.Info.ObjectOf(id).(*types.PkgName)
		return ok && rgIsEpsPath(pn.Imported().Path())
	case *ast.Ident:
		return fun.Name == "Zero" && p.Pkg != nil && rgIsEpsPath(p.Pkg.Path())
	}
	return false
}

func rgIsEpsPath(path string) bool {
	return path == "eps" || strings.HasSuffix(path, "/eps")
}

// rgBaseIdents collects the base identifiers an expression reads (selector
// bases, call arguments, operands) — the kill set for its facts.
func rgBaseIdents(e ast.Expr) []string {
	seen := make(map[string]bool)
	var out []string
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Ident:
			if !seen[e.Name] {
				seen[e.Name] = true
				out = append(out, e.Name)
			}
		case *ast.SelectorExpr:
			walk(e.X)
		case *ast.ParenExpr:
			walk(e.X)
		case *ast.StarExpr:
			walk(e.X)
		case *ast.UnaryExpr:
			walk(e.X)
		case *ast.BinaryExpr:
			walk(e.X)
			walk(e.Y)
		case *ast.IndexExpr:
			walk(e.X)
			walk(e.Index)
		case *ast.CallExpr:
			for _, a := range e.Args {
				walk(a)
			}
		case *ast.TypeAssertExpr:
			walk(e.X)
		case *ast.SliceExpr:
			walk(e.X)
		}
	}
	walk(e)
	return out
}
