package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/cfg"
	"repro/internal/lint/flow"
	"repro/internal/lint/summary"
)

// PoolLifetime reports uses of a pooled value after its Release and double
// releases. PoolRelease proves the obligation side — every acquired value
// reaches Release; this analyzer proves the other half of the lifetime
// contract: once a value with a Release method (cktable.Table,
// cluster.Table) or a sync.Pool member is released, the current holder must
// not touch it again — the pool may already have handed it to another
// goroutine, so a late Merge or Write is a data race the type system cannot
// see, and a second Release poisons the pool with a double-freed object.
//
// The analysis is a forward may-released problem over the CFG, keyed by
// expression rendering rather than by object so element lifetimes like
// `shards[src]` are tracked (the wgbalance convention); local roots are
// disambiguated by declaration position, and a rendering that indexes by a
// variable records the dependence — reassigning `src` kills the
// `shards[src]` fact. Releases through in-package helpers are seen via the
// Releases effect summary, so Merge-then-release pipelines like
// cluster.NewTableParallel check cleanly. Rebinding the expression, or a
// nil comparison, ends the tracked lifetime (nil tests are how callers
// guard optional releases). A deferred release registers instead of
// releasing; an explicit release while one is pending is reported at
// function exit.
var PoolLifetime = &Analyzer{
	Name: "poollifetime",
	Doc:  "pooled value used after Release, or released twice",
	Run:  runPoolLifetime,
}

// plFact is one released value.
type plFact struct {
	releasedAt token.Pos
	// what renders the released expression for diagnostics.
	what string
	// deps are variables the rendering indexes by (`src` in `shards[src]`);
	// reassigning one retargets the rendering, ending the fact.
	deps map[*types.Var]bool
}

type plState struct {
	// rel: renderings released on some incoming path.
	rel map[string]plFact
	// def: renderings with a deferred release pending (registration
	// position), tracked in flow state so the pairing is path-aware.
	def map[string]token.Pos
}

func plClone(s plState) plState {
	c := plState{rel: make(map[string]plFact, len(s.rel)), def: make(map[string]token.Pos, len(s.def))}
	for k, v := range s.rel {
		c.rel[k] = v
	}
	for k, v := range s.def {
		c.def[k] = v
	}
	return c
}

func plEqual(a, b plState) bool {
	if len(a.rel) != len(b.rel) || len(a.def) != len(b.def) {
		return false
	}
	for k, v := range a.rel {
		if bv, ok := b.rel[k]; !ok || bv.releasedAt != v.releasedAt {
			return false
		}
	}
	for k, v := range a.def {
		if bv, ok := b.def[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// plJoin unions: released on any path is released (may-analysis). The
// first-seen fact wins so positions stay deterministic.
func plJoin(dst, src plState) plState {
	for k, v := range src.rel {
		if _, ok := dst.rel[k]; !ok {
			dst.rel[k] = v
		}
	}
	for k, v := range src.def {
		if dv, ok := dst.def[k]; !ok || v < dv {
			dst.def[k] = v
		}
	}
	return dst
}

func runPoolLifetime(p *Pass) {
	for _, f := range p.Files {
		for _, fn := range functionsIn(f) {
			poolLifetimeFunc(p, fn)
		}
	}
}

func poolLifetimeFunc(p *Pass, fn funcScope) {
	ctx := &plCtx{p: p, caps: capturedVars(p, fn.body)}
	g := cfg.New(fn.body)
	prob := flow.Problem[plState]{
		Boundary: func() plState { return plState{rel: map[string]plFact{}, def: map[string]token.Pos{}} },
		Transfer: func(b *cfg.Block, s plState) plState {
			ctx.transfer(b, s, false)
			return s
		},
		Join:  plJoin,
		Equal: plEqual,
		Clone: plClone,
	}
	res := flow.Solve(g, prob)
	for _, b := range g.Reachable() {
		in, ok := res.In[b]
		if !ok {
			continue
		}
		ctx.transfer(b, plClone(in), true)
	}
	// An explicit release while a deferred one is pending: the defer fires
	// at return and releases again.
	if exit, ok := res.In[g.Exit]; ok {
		for k, fact := range exit.rel {
			if dpos, pending := exit.def[k]; pending && fact.releasedAt > dpos {
				p.reportf(fact.releasedAt, "%s is released here and again by the deferred release at line %d",
					fact.what, p.Fset.Position(dpos).Line)
			}
		}
	}
}

type plCtx struct {
	p    *Pass
	caps map[*types.Var]bool
}

func (ctx *plCtx) transfer(b *cfg.Block, s plState, report bool) {
	for _, n := range b.Nodes {
		// The use check sees the state before this node's own releases and
		// rebinds; release-event operands are exempt (a second Release is
		// the double-release diagnostic, not a use).
		if report {
			exempt := map[ast.Expr]bool{}
			inspectCFGNode(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					for _, t := range ctx.releaseTargets(call) {
						exempt[t] = true
					}
				}
				return true
			})
			ctx.useCheck(n, s, exempt)
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			ctx.applyDefer(n, s, report)
		default:
			inspectCFGNode(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					ctx.applyRelease(call, s, report)
				}
				return true
			})
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			ctx.applyAssign(n, s)
		case *ast.IncDecStmt:
			ctx.applyRebind(n.X, s)
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, name := range vs.Names {
							ctx.applyRebind(name, s)
						}
					}
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if e != nil {
					ctx.applyRebind(e, s)
				}
			}
		}
	}
}

// releaseTargets returns the expressions this call releases: the receiver
// of x.Release(), the arguments of a Put on a sync.Pool (or of a typed
// wrapper whose argument has a Release method), and arguments/receiver an
// in-package callee summary proves it releases.
func (ctx *plCtx) releaseTargets(call *ast.CallExpr) []ast.Expr {
	p := ctx.p
	var out []ast.Expr
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Release":
			if len(call.Args) == 0 && hasReleaseMethod(p.typeOf(sel.X)) {
				out = append(out, sel.X)
			}
		case "Put":
			for _, arg := range call.Args {
				bare := arg
				if u, ok := bare.(*ast.UnaryExpr); ok && u.Op == token.AND {
					bare = u.X
				}
				if isSyncPool(p, sel.X) || hasReleaseMethod(p.typeOf(bare)) {
					out = append(out, bare)
				}
			}
		}
	}
	if sum := p.Sums.ForCall(call); sum != nil {
		// Sorted so target (and thus report) order is deterministic.
		refs := make([]summary.Ref, 0, len(sum.Releases))
		for ref := range sum.Releases {
			if ref.Path == "" {
				refs = append(refs, ref)
			}
		}
		sort.Slice(refs, func(i, j int) bool { return refs[i].Param < refs[j].Param })
		for _, ref := range refs {
			if ref.Param == summary.Recv {
				if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
					out = append(out, sel.X)
				}
				continue
			}
			if ref.Param >= 0 && ref.Param < len(call.Args) {
				out = append(out, call.Args[ref.Param])
			}
		}
	}
	return out
}

func (ctx *plCtx) applyRelease(call *ast.CallExpr, s plState, report bool) {
	for _, target := range ctx.releaseTargets(call) {
		key, deps, ok := ctx.render(target)
		if !ok {
			continue
		}
		if old, released := s.rel[key]; released {
			if report {
				ctx.p.reportf(call.Pos(), "%s released twice: already released at line %d",
					old.what, ctx.p.Fset.Position(old.releasedAt).Line)
			}
			continue
		}
		s.rel[key] = plFact{releasedAt: call.Pos(), what: types.ExprString(unparen(target)), deps: deps}
	}
}

// applyDefer registers a deferred release instead of applying it: the
// release runs at return, so the value stays usable on the fallthrough —
// but a value already released now, or a second deferred release, is a
// guaranteed double release.
func (ctx *plCtx) applyDefer(n *ast.DeferStmt, s plState, report bool) {
	targets := ctx.releaseTargets(n.Call)
	if len(targets) == 0 {
		return
	}
	for _, target := range targets {
		key, _, ok := ctx.render(target)
		if !ok {
			continue
		}
		if old, released := s.rel[key]; released {
			if report {
				ctx.p.reportf(n.Pos(), "deferred release of %s: value already released at line %d",
					old.what, ctx.p.Fset.Position(old.releasedAt).Line)
			}
			continue
		}
		if prev, pending := s.def[key]; pending {
			if report {
				ctx.p.reportf(n.Pos(), "%s has two deferred releases (first at line %d)",
					types.ExprString(unparen(target)), ctx.p.Fset.Position(prev).Line)
			}
			continue
		}
		s.def[key] = n.Pos()
	}
}

// applyAssign ends lifetimes: rebinding a tracked rendering (or a variable
// such a rendering indexes by) retargets it, and `y := x` of a released x
// makes y an alias of the dead value.
func (ctx *plCtx) applyAssign(n *ast.AssignStmt, s plState) {
	for i, lhs := range n.Lhs {
		var aliasFact plFact
		hasAlias := false
		if (n.Tok == token.ASSIGN || n.Tok == token.DEFINE) && len(n.Rhs) == len(n.Lhs) {
			if rk, _, ok := ctx.render(n.Rhs[i]); ok {
				if f, dead := s.rel[rk]; dead {
					aliasFact, hasAlias = f, true
				}
			}
		}
		ctx.applyRebind(lhs, s)
		if hasAlias {
			if lk, deps, ok := ctx.render(lhs); ok {
				aliasFact.deps = deps
				s.rel[lk] = aliasFact
			}
		}
	}
}

// applyRebind kills facts for e's rendering, anything rendered beneath it,
// and any fact whose index dependence names e (when e is an identifier).
func (ctx *plCtx) applyRebind(e ast.Expr, s plState) {
	if key, _, ok := ctx.render(e); ok {
		for k := range s.rel {
			if k == key || strings.HasPrefix(k, key+".") || strings.HasPrefix(k, key+"[") {
				delete(s.rel, k)
			}
		}
		for k := range s.def {
			if k == key || strings.HasPrefix(k, key+".") || strings.HasPrefix(k, key+"[") {
				delete(s.def, k)
			}
		}
	}
	if id, ok := unparen(e).(*ast.Ident); ok {
		if v := prObjOf(ctx.p, id); v != nil {
			for k, f := range s.rel {
				if f.deps[v] {
					delete(s.rel, k)
				}
			}
		}
	}
}

// useCheck reports maximal expressions whose rendering names a released
// value. Assignment LHS is skipped (a rebind is how lifetimes end), as are
// nil comparisons (the guard idiom for optional releases) and the exempted
// release operands of this very node.
func (ctx *plCtx) useCheck(n ast.Node, s plState, exempt map[ast.Expr]bool) {
	if len(s.rel) == 0 {
		return
	}
	var checkExpr func(e ast.Expr)
	var checkNode func(m ast.Node)
	checkExpr = func(e ast.Expr) {
		if e == nil || exempt[e] {
			return
		}
		if bin, ok := e.(*ast.BinaryExpr); ok && (bin.Op == token.EQL || bin.Op == token.NEQ) {
			if plIsNil(ctx.p, bin.X) || plIsNil(ctx.p, bin.Y) {
				return
			}
		}
		if key, _, ok := ctx.render(e); ok {
			if f, dead := s.rel[key]; dead {
				ctx.p.reportf(e.Pos(), "use of %s after its release at line %d",
					f.what, ctx.p.Fset.Position(f.releasedAt).Line)
				delete(s.rel, key)
				return
			}
		}
		switch e := e.(type) {
		case *ast.ParenExpr:
			checkExpr(e.X)
		case *ast.SelectorExpr:
			checkExpr(e.X)
		case *ast.IndexExpr:
			checkExpr(e.X)
			checkExpr(e.Index)
		case *ast.StarExpr:
			checkExpr(e.X)
		case *ast.UnaryExpr:
			checkExpr(e.X)
		case *ast.BinaryExpr:
			checkExpr(e.X)
			checkExpr(e.Y)
		case *ast.CallExpr:
			checkExpr(e.Fun)
			for _, a := range e.Args {
				checkExpr(a)
			}
		case *ast.CompositeLit:
			for _, elt := range e.Elts {
				checkExpr(elt)
			}
		case *ast.KeyValueExpr:
			checkExpr(e.Value)
		case *ast.SliceExpr:
			checkExpr(e.X)
		case *ast.TypeAssertExpr:
			checkExpr(e.X)
		case *ast.FuncLit:
			// The literal's body has its own pass.
		}
	}
	checkNode = func(m ast.Node) {
		switch m := m.(type) {
		case *ast.AssignStmt:
			for _, r := range m.Rhs {
				// A bare identifier RHS copies the pointer without touching
				// the released object; the alias it creates is tracked, and
				// its first dereference is where the finding lands.
				if _, isIdent := unparen(r).(*ast.Ident); isIdent {
					continue
				}
				checkExpr(r)
			}
			// Index expressions on the LHS still read their index and base
			// bindings, but a released base being *assigned into* is the
			// rebind idiom — skip the whole LHS.
		case *ast.IncDecStmt:
			// Rebind idiom.
		case *ast.DeclStmt:
			if gd, ok := m.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							checkExpr(v)
						}
					}
				}
			}
		case *ast.ExprStmt:
			checkExpr(m.X)
		case *ast.DeferStmt:
			checkExpr(m.Call)
		case *ast.GoStmt:
			checkExpr(m.Call)
		case *ast.SendStmt:
			checkExpr(m.Chan)
			checkExpr(m.Value)
		case *ast.ReturnStmt:
			for _, r := range m.Results {
				checkExpr(r)
			}
		case ast.Expr:
			checkExpr(m)
		}
	}
	checkNode(n)
}

// render produces the tracking key for e: identifiers (disambiguated by
// declaration position so shadowed names stay distinct), field selections,
// variable- or literal-indexed elements, and dereferences. The root must be
// a local or package-level variable not captured by a nested literal
// (captured values have cross-function lifetimes this per-function pass
// cannot judge). Returns the index-variable dependences alongside.
func (ctx *plCtx) render(e ast.Expr) (string, map[*types.Var]bool, bool) {
	var deps map[*types.Var]bool
	var build func(e ast.Expr) (string, bool)
	build = func(e ast.Expr) (string, bool) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			return build(e.X)
		case *ast.Ident:
			v := prObjOf(ctx.p, e)
			if v == nil || ctx.caps[v] {
				return "", false
			}
			return fmt.Sprintf("%s#%d", e.Name, v.Pos()), true
		case *ast.SelectorExpr:
			base, ok := build(e.X)
			if !ok {
				return "", false
			}
			return base + "." + e.Sel.Name, true
		case *ast.IndexExpr:
			base, ok := build(e.X)
			if !ok {
				return "", false
			}
			switch idx := unparen(e.Index).(type) {
			case *ast.Ident:
				v := prObjOf(ctx.p, idx)
				if v == nil {
					return "", false
				}
				if deps == nil {
					deps = map[*types.Var]bool{}
				}
				deps[v] = true
				return fmt.Sprintf("%s[%s#%d]", base, idx.Name, v.Pos()), true
			case *ast.BasicLit:
				return fmt.Sprintf("%s[%s]", base, idx.Value), true
			}
			return "", false
		case *ast.StarExpr:
			base, ok := build(e.X)
			if !ok {
				return "", false
			}
			return "*" + base, true
		}
		return "", false
	}
	key, ok := build(e)
	return key, deps, ok
}

func plIsNil(p *Pass, e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := p.Info.Uses[id].(*types.Nil)
	return isNil
}
