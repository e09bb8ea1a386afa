package summary

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"repro/internal/lint/callgraph"
	"repro/internal/lint/cfg"
	"repro/internal/lint/flow"
)

// effKind distinguishes the fact families tracked per ref.
type effKind uint8

const (
	kRelease effKind = iota // pooled value released (bool)
	kClose                  // channel closed (bool)
	kMu                     // mutex write-side delta
	kMuR                    // RWMutex read-side delta
	kWg                     // WaitGroup Add-Done delta
	kSort                   // slice handed to a sort call (bool)
)

// effKey is one tracked fact: a kind on a param-derived ref.
type effKey struct {
	kind effKind
	ref  Ref
}

// deltaCap clamps numeric deltas so loops reach a fixed point.
const deltaCap = 3

func clamp(v int8) int8 {
	if v > deltaCap {
		return deltaCap
	}
	if v < -deltaCap {
		return -deltaCap
	}
	return v
}

// effState is the must-state at a program point. vals holds booleans (1 for
// kRelease/kClose) and clamped deltas; an absent numeric key means delta 0.
// poison marks keys whose value can no longer be trusted on some path;
// paramPoison poisons every key (present and future) based on that param.
type effState struct {
	vals        map[effKey]int8
	poison      map[effKey]bool
	paramPoison map[int]bool
}

func newEffState() effState {
	return effState{
		vals:        make(map[effKey]int8),
		poison:      make(map[effKey]bool),
		paramPoison: make(map[int]bool),
	}
}

func effClone(s effState) effState {
	c := effState{
		vals:        make(map[effKey]int8, len(s.vals)),
		poison:      make(map[effKey]bool, len(s.poison)),
		paramPoison: make(map[int]bool, len(s.paramPoison)),
	}
	for k, v := range s.vals {
		c.vals[k] = v
	}
	for k := range s.poison {
		c.poison[k] = true
	}
	for k := range s.paramPoison {
		c.paramPoison[k] = true
	}
	return c
}

func effEqual(a, b effState) bool {
	if len(a.vals) != len(b.vals) || len(a.poison) != len(b.poison) || len(a.paramPoison) != len(b.paramPoison) {
		return false
	}
	for k, v := range a.vals {
		if bv, ok := b.vals[k]; !ok || bv != v {
			return false
		}
	}
	for k := range a.poison {
		if !b.poison[k] {
			return false
		}
	}
	for k := range a.paramPoison {
		if !b.paramPoison[k] {
			return false
		}
	}
	return true
}

// effJoin merges two path states: booleans intersect (a release must happen
// on both paths), deltas must agree exactly (absent counts as zero) or the
// key is poisoned, and poison unions (it is a may-property).
func effJoin(dst, src effState) effState {
	for k := range src.poison {
		dst.poison[k] = true
	}
	for k := range src.paramPoison {
		dst.paramPoison[k] = true
	}
	for k, dv := range dst.vals {
		sv, inSrc := src.vals[k]
		switch k.kind {
		case kRelease, kClose, kSort:
			if !inSrc {
				delete(dst.vals, k)
			}
		default:
			if sv != dv { // absent in src reads as sv == 0
				delete(dst.vals, k)
				dst.poison[k] = true
			}
		}
	}
	for k, sv := range src.vals {
		if _, inDst := dst.vals[k]; inDst {
			continue
		}
		switch k.kind {
		case kRelease, kClose, kSort:
			// Absent in dst: not established on that path — stays absent.
		default:
			if sv != 0 && !dst.poison[k] {
				// dst reads as zero: the paths disagree.
				dst.poison[k] = true
			}
		}
	}
	for k := range dst.poison {
		delete(dst.vals, k)
	}
	return dst
}

// set records a fact unless the key is poisoned.
func (s effState) set(k effKey, v int8) {
	if s.poison[k] || s.paramPoison[k.ref.Param] {
		return
	}
	s.vals[k] = v
}

func (s effState) add(k effKey, d int8) {
	if s.poison[k] || s.paramPoison[k.ref.Param] {
		return
	}
	nv := clamp(s.vals[k] + d)
	if nv == 0 {
		delete(s.vals, k)
	} else {
		s.vals[k] = nv
	}
}

func (s effState) poisonKey(k effKey) {
	s.poison[k] = true
	delete(s.vals, k)
}

func (s effState) poisonParam(idx int) {
	s.paramPoison[idx] = true
	for k := range s.vals {
		if k.ref.Param == idx {
			delete(s.vals, k)
		}
	}
}

// funcCtx is the resolution context for one summarized function.
type funcCtx struct {
	set  *Set
	info *types.Info
	node *callgraph.Node
	// params maps receiver/parameter objects to their Ref index.
	params map[*types.Var]int
	// invalid marks params that were reassigned or had their address taken:
	// refs through them no longer name the caller's value.
	invalid map[*types.Var]bool
	// inSCC marks the members of the component being fixpointed; a nil
	// summary for one of them is replaced by the optimistic universal
	// summary on the first round.
	inSCC      map[*types.Func]bool
	optimistic bool
}

func newFuncCtx(set *Set, n *callgraph.Node, inSCC map[*types.Func]bool, optimistic bool) *funcCtx {
	fc := &funcCtx{
		set: set, info: set.info, node: n,
		params:  make(map[*types.Var]int),
		invalid: make(map[*types.Var]bool),
		inSCC:   inSCC, optimistic: optimistic,
	}
	addNames := func(fl *ast.FieldList, start int) int {
		if fl == nil {
			return start
		}
		idx := start
		for _, field := range fl.List {
			if len(field.Names) == 0 {
				idx++ // unnamed param still occupies an index
				continue
			}
			for _, name := range field.Names {
				if v, ok := set.info.Defs[name].(*types.Var); ok {
					fc.params[v] = idx
				}
				idx++
			}
		}
		return idx
	}
	if n.Decl.Recv != nil && len(n.Decl.Recv.List) == 1 {
		recv := n.Decl.Recv.List[0]
		if len(recv.Names) == 1 {
			if v, ok := set.info.Defs[recv.Names[0]].(*types.Var); ok {
				fc.params[v] = Recv
			}
		}
	}
	addNames(n.Decl.Type.Params, 0)

	// A param whose identifier is assigned or address-taken stops naming the
	// caller's value; drop it.
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				if id, ok := unparen(lhs).(*ast.Ident); ok {
					if v, ok := set.info.Uses[id].(*types.Var); ok {
						if _, isParam := fc.params[v]; isParam {
							fc.invalid[v] = true
						}
					}
				}
			}
		case *ast.UnaryExpr:
			if m.Op == token.AND {
				if id, ok := unparen(m.X).(*ast.Ident); ok {
					if v, ok := set.info.Uses[id].(*types.Var); ok {
						if _, isParam := fc.params[v]; isParam {
							fc.invalid[v] = true
						}
					}
				}
			}
		}
		return true
	})
	return fc
}

// refOf resolves an expression to the parameter-derived value it names:
// a param/receiver identifier, a field chain on one, possibly behind * or &.
func (fc *funcCtx) refOf(e ast.Expr) (Ref, bool) {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		v, ok := fc.info.Uses[e].(*types.Var)
		if !ok || fc.invalid[v] {
			return Ref{}, false
		}
		idx, ok := fc.params[v]
		return Ref{Param: idx}, ok
	case *ast.SelectorExpr:
		sel, ok := fc.info.Selections[e]
		if !ok || sel.Kind() != types.FieldVal {
			return Ref{}, false
		}
		base, ok := fc.refOf(e.X)
		if !ok {
			return Ref{}, false
		}
		return Ref{Param: base.Param, Path: base.Path + "." + e.Sel.Name}, true
	case *ast.StarExpr:
		return fc.refOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return fc.refOf(e.X)
		}
	}
	return Ref{}, false
}

// calleeSummary returns the summary to use for an in-package callee during
// this round: the computed one, or — first optimistic round inside a cycle —
// the universal summary marker (nil, true).
func (fc *funcCtx) calleeSummary(fn *types.Func) (sum *Summary, universal bool) {
	if fn == nil {
		return nil, false
	}
	if s := fc.set.sums[fn]; s != nil {
		return s, false
	}
	if fc.optimistic && fc.inSCC[fn] {
		return nil, true
	}
	return nil, false
}

// computeOne derives the summary of one function with the current summary
// map. optimistic selects the universal treatment of unsummarized in-SCC
// callees (first round of a cyclic component).
func (set *Set) computeOne(n *callgraph.Node, inSCC map[*types.Func]bool, optimistic bool) *Summary {
	fc := newFuncCtx(set, n, inSCC, optimistic)
	g := cfg.New(n.Decl.Body)

	prob := flow.Problem[effState]{
		Boundary: newEffState,
		Transfer: func(b *cfg.Block, s effState) effState {
			for _, node := range b.Nodes {
				fc.transferNode(node, s)
			}
			return s
		},
		Join:  effJoin,
		Equal: effEqual,
		Clone: effClone,
	}
	res := flow.Solve(g, prob)

	sum := &Summary{
		Releases:         make(map[Ref]bool),
		Closes:           make(map[Ref]bool),
		MutexDelta:       make(map[MutexRef]int),
		WgDelta:          make(map[Ref]int),
		EstablishesOrder: make(map[Ref]bool),
		poisoned:         make(map[effKey]bool),
		paramPoison:      make(map[int]bool),
	}

	// The fixed-point state entering Exit is the join over every normal
	// return path — exactly the must-summary of the function's effects.
	if exit, ok := res.In[g.Exit]; ok {
		for k, v := range exit.vals {
			switch k.kind {
			case kRelease:
				sum.Releases[k.ref] = true
			case kClose:
				sum.Closes[k.ref] = true
			case kMu:
				sum.MutexDelta[MutexRef{Ref: k.ref}] = int(v)
			case kMuR:
				sum.MutexDelta[MutexRef{Ref: k.ref, Read: true}] = int(v)
			case kWg:
				sum.WgDelta[k.ref] = int(v)
			case kSort:
				sum.EstablishesOrder[k.ref] = true
			}
		}
		for k := range exit.poison {
			sum.poisoned[k] = true
		}
		for idx := range exit.paramPoison {
			sum.paramPoison[idx] = true
		}
	} else {
		// No normal return: effect facts are meaningless to callers.
		sum.NeverTerminates = !reachesAnySink(g)
	}

	set.computeTermination(fc, g, sum)
	set.computeError(fc, sum)
	set.computeOrderFacts(fc, sum)
	return sum
}

// reachesAnySink reports whether some reachable block terminates the
// function at all (normal exit or panic-shaped sink).
func reachesAnySink(g *cfg.Graph) bool {
	for _, b := range g.Reachable() {
		if b == g.Exit {
			return true
		}
		if len(b.Succs) == 0 && !b.Stuck {
			return true
		}
	}
	return false
}

// transferNode applies one CFG node's effects to the state.
func (fc *funcCtx) transferNode(n ast.Node, s effState) {
	switch n := n.(type) {
	case *ast.DeferStmt:
		// Deferred effects run before control returns to the caller, so for
		// exit-state facts they can be credited immediately — the same
		// convention lockbalance uses for `defer mu.Unlock()`.
		fc.applyCall(n.Call, s)
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			fc.applyLitEffects(lit, s)
		}
	case *ast.GoStmt:
		fc.applyGo(n, s)
	default:
		// Walk the node for calls, skipping nested literals (their bodies
		// run elsewhere, if ever) and the opaque parts of range bindings.
		walkCFGNode(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				fc.applyCall(call, s)
			}
			return true
		})
	}
}

// applyGo handles a go statement: asynchronous effects are not must-facts,
// with one deliberate exception — WaitGroup.Done calls the goroutine is
// going to make are credited immediately (the accounting convention shared
// with wgbalance). Mutex refs the goroutine touches are poisoned: an
// asynchronous unlock makes the caller's count meaningless.
func (fc *funcCtx) applyGo(n *ast.GoStmt, s effState) {
	// Arguments are evaluated synchronously at the go statement.
	for _, arg := range n.Call.Args {
		walkCFGNode(arg, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				fc.applyCall(call, s)
			}
			return true
		})
	}
	if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
		walkCFGNode(lit.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if ref, read, op, isMu := fc.mutexOp(call); isMu {
				_ = op
				kind := kMu
				if read {
					kind = kMuR
				}
				s.poisonKey(effKey{kind: kind, ref: ref})
			}
			if ref, op, _, isWg := fc.wgOp(call); isWg && op == "Done" {
				s.add(effKey{kind: kWg, ref: ref}, -1)
			}
			return true
		})
		return
	}
	// go f(x...) / go x.m(): apply the callee's Done credits; poison mutex
	// refs it touches.
	if sum, _ := fc.calleeSummary(callgraph.Callee(fc.info, n.Call)); sum != nil {
		fc.mapCalleeEffects(n.Call, sum, s, true)
	} else {
		fc.poisonUnknownCall(n.Call, s)
	}
}

// applyLitEffects credits the effects inside a directly deferred literal:
// `defer func() { s.mu.Unlock(); close(ch) }()` runs at every exit.
func (fc *funcCtx) applyLitEffects(lit *ast.FuncLit, s effState) {
	walkCFGNode(lit.Body, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			fc.applyCall(call, s)
		}
		return true
	})
}

// applyCall interprets one call expression against the state.
func (fc *funcCtx) applyCall(call *ast.CallExpr, s effState) {
	// Builtin close.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := fc.info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "close" && len(call.Args) == 1 {
				if ref, ok := fc.refOf(call.Args[0]); ok {
					s.set(effKey{kind: kClose, ref: ref}, 1)
				}
			}
			return
		}
	}
	// Mutex and WaitGroup primitives.
	if ref, read, op, isMu := fc.mutexOp(call); isMu {
		kind := kMu
		if read {
			kind = kMuR
		}
		switch op {
		case "Lock", "RLock":
			s.add(effKey{kind: kind, ref: ref}, 1)
		case "Unlock", "RUnlock":
			s.add(effKey{kind: kind, ref: ref}, -1)
		}
		return
	}
	if ref, op, cnt, isWg := fc.wgOp(call); isWg {
		switch op {
		case "Add":
			if cnt == unknownCount {
				s.poisonKey(effKey{kind: kWg, ref: ref})
			} else {
				s.add(effKey{kind: kWg, ref: ref}, int8(cnt))
			}
		case "Done":
			s.add(effKey{kind: kWg, ref: ref}, -1)
		}
		return
	}
	// sort.X / slices.X establishing order on a param-derived slice.
	if ref, ok := fc.sortTarget(call); ok {
		s.set(effKey{kind: kSort, ref: ref}, 1)
		return
	}
	// Release/Put, mirroring poolrelease's site patterns.
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Release":
			if len(call.Args) == 0 {
				if ref, ok := fc.refOf(sel.X); ok {
					s.set(effKey{kind: kRelease, ref: ref}, 1)
					return
				}
			}
		case "Put":
			for _, arg := range call.Args {
				if ref, ok := fc.refOf(arg); ok {
					s.set(effKey{kind: kRelease, ref: ref}, 1)
				}
			}
			return
		}
	}
	// Resolved callee: in-package summaries transfer; anything else is the
	// unknown callee and poisons what it could touch.
	callee := callgraph.Callee(fc.info, call)
	if sum, universal := fc.calleeSummary(callee); sum != nil {
		fc.mapCalleeEffects(call, sum, s, false)
	} else if universal {
		fc.applyUniversal(call, s)
	} else {
		fc.poisonUnknownCall(call, s)
	}
}

// mapCalleeEffects translates a callee summary's param-indexed facts into
// the caller's refs at this call site. goCredit restricts the application
// to WaitGroup Done credits and mutex poison (the `go callee()` case).
func (fc *funcCtx) mapCalleeEffects(call *ast.CallExpr, sum *Summary, s effState, goCredit bool) {
	base := func(idx int) (Ref, bool) {
		if idx == Recv {
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
				return fc.refOf(sel.X)
			}
			return Ref{}, false
		}
		if idx < 0 || idx >= len(call.Args) {
			return Ref{}, false
		}
		return fc.refOf(call.Args[idx])
	}
	joinRef := func(calleeRef Ref) (Ref, bool) {
		b, ok := base(calleeRef.Param)
		if !ok {
			return Ref{}, false
		}
		return Ref{Param: b.Param, Path: b.Path + calleeRef.Path}, true
	}
	if !goCredit {
		for r := range sum.Releases {
			if cr, ok := joinRef(r); ok {
				s.set(effKey{kind: kRelease, ref: cr}, 1)
			}
		}
		for r := range sum.Closes {
			if cr, ok := joinRef(r); ok {
				s.set(effKey{kind: kClose, ref: cr}, 1)
			}
		}
		for mr, d := range sum.MutexDelta {
			if cr, ok := joinRef(mr.Ref); ok {
				kind := kMu
				if mr.Read {
					kind = kMuR
				}
				s.add(effKey{kind: kind, ref: cr}, int8(d))
			}
		}
		for r := range sum.EstablishesOrder {
			if cr, ok := joinRef(r); ok {
				s.set(effKey{kind: kSort, ref: cr}, 1)
			}
		}
	}
	for r, d := range sum.WgDelta {
		if goCredit && d >= 0 {
			continue // a spawned callee's Adds are its own business
		}
		if cr, ok := joinRef(r); ok {
			s.add(effKey{kind: kWg, ref: cr}, int8(d))
		}
	}
	if goCredit {
		for mr := range sum.MutexDelta {
			if cr, ok := joinRef(mr.Ref); ok {
				kind := kMu
				if mr.Read {
					kind = kMuR
				}
				s.poisonKey(effKey{kind: kind, ref: cr})
			}
		}
	}
	// The callee's own uncertainty transfers: a ref it poisoned is one we
	// can no longer vouch for either.
	for k := range sum.poisoned {
		if cr, ok := joinRef(k.ref); ok {
			s.poisonKey(effKey{kind: k.kind, ref: cr})
		}
	}
	for idx := range sum.paramPoison {
		if cr, ok := base(idx); ok {
			fc.poisonRefKeys(s, cr)
		}
	}
}

// applyUniversal is the optimistic first-round treatment of an in-SCC
// callee: it releases and closes everything handed to it directly, so a
// base-case fact can survive the descent; numeric deltas stay pessimistic
// (poisoned) through cycles.
func (fc *funcCtx) applyUniversal(call *ast.CallExpr, s effState) {
	apply := func(e ast.Expr) {
		if ref, ok := fc.refOf(e); ok {
			s.set(effKey{kind: kRelease, ref: ref}, 1)
			s.set(effKey{kind: kClose, ref: ref}, 1)
			s.set(effKey{kind: kSort, ref: ref}, 1)
			s.poisonKey(effKey{kind: kMu, ref: ref})
			s.poisonKey(effKey{kind: kMuR, ref: ref})
			s.poisonKey(effKey{kind: kWg, ref: ref})
		}
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		apply(sel.X)
	}
	for _, arg := range call.Args {
		apply(arg)
	}
}

// poisonUnknownCall poisons the facts of every param-derived argument (and
// method receiver) through which an unknown or external callee could reach
// a sync primitive or channel.
func (fc *funcCtx) poisonUnknownCall(call *ast.CallExpr, s effState) {
	consider := func(e ast.Expr) {
		ref, ok := fc.refOf(e)
		if !ok {
			return
		}
		if t := fc.info.TypeOf(e); t != nil && !canReachSync(t) {
			return
		}
		fc.poisonRefKeys(s, ref)
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := fc.info.Selections[sel]; isSel {
			consider(sel.X)
		}
	}
	for _, arg := range call.Args {
		consider(arg)
	}
}

// poisonRefKeys poisons every fact kind on ref and on refs extending it
// (handing out `s` compromises `s.mu` too). A bare param ref poisons the
// whole param.
func (fc *funcCtx) poisonRefKeys(s effState, ref Ref) {
	if ref.Path == "" {
		s.poisonParam(ref.Param)
		return
	}
	for _, kind := range []effKind{kRelease, kClose, kMu, kMuR, kWg, kSort} {
		s.poisonKey(effKey{kind: kind, ref: ref})
		for k := range s.vals {
			if k.ref.Param == ref.Param && len(k.ref.Path) > len(ref.Path) &&
				k.ref.Path[:len(ref.Path)] == ref.Path {
				s.poisonKey(k)
			}
		}
	}
}

// unknownCount marks a non-constant WaitGroup.Add argument.
const unknownCount = -1 << 10

// mutexOp matches <ref>.Lock/Unlock/RLock/RUnlock() on sync.Mutex/RWMutex.
func (fc *funcCtx) mutexOp(call *ast.CallExpr) (ref Ref, read bool, op string, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return Ref{}, false, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return Ref{}, false, "", false
	}
	if !isSyncNamed(fc.info.TypeOf(sel.X), "Mutex", "RWMutex") {
		return Ref{}, false, "", false
	}
	r, resolved := fc.refOf(sel.X)
	if !resolved {
		return Ref{}, false, "", false
	}
	op = sel.Sel.Name
	return r, op == "RLock" || op == "RUnlock", op, true
}

// wgOp matches <ref>.Add(n)/Done()/Wait() on sync.WaitGroup. For Add, cnt
// is the constant argument or unknownCount.
func (fc *funcCtx) wgOp(call *ast.CallExpr) (ref Ref, op string, cnt int, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return Ref{}, "", 0, false
	}
	switch sel.Sel.Name {
	case "Add", "Done", "Wait":
	default:
		return Ref{}, "", 0, false
	}
	if !isSyncNamed(fc.info.TypeOf(sel.X), "WaitGroup") {
		return Ref{}, "", 0, false
	}
	r, resolved := fc.refOf(sel.X)
	if !resolved {
		return Ref{}, "", 0, false
	}
	op = sel.Sel.Name
	if op == "Add" {
		cnt = unknownCount
		if len(call.Args) == 1 {
			if tv, isConst := fc.info.Types[call.Args[0]]; isConst && tv.Value != nil && tv.Value.Kind() == constant.Int {
				if v, exact := constant.Int64Val(tv.Value); exact && v > -deltaCap && v < deltaCap {
					cnt = int(v)
				}
			}
		}
	}
	return r, op, cnt, true
}

// isSyncNamed reports whether t (possibly behind a pointer) is one of the
// named sync package types.
func isSyncNamed(t types.Type, names ...string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	for _, n := range names {
		if named.Obj().Name() == n {
			return true
		}
	}
	return false
}

// canReachSync reports whether a value of type t could give a callee access
// to a sync primitive or channel (transitively, through pointers and
// containers). Interfaces count: they can hold anything.
func canReachSync(t types.Type) bool {
	return canReachSyncSeen(t, make(map[types.Type]bool))
}

func canReachSyncSeen(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Chan, *types.Interface, *types.Signature:
		return true
	case *types.Pointer:
		return canReachSyncSeen(u.Elem(), seen)
	case *types.Slice:
		return canReachSyncSeen(u.Elem(), seen)
	case *types.Array:
		return canReachSyncSeen(u.Elem(), seen)
	case *types.Map:
		return canReachSyncSeen(u.Key(), seen) || canReachSyncSeen(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if canReachSyncSeen(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	}
	return true
}

// walkCFGNode walks n the way the CFG assigns nodes to blocks: it does not
// descend into nested function literals, and on a *ast.RangeStmt — which a
// block holds only as the per-iteration binding — it visits neither the
// operand nor the body.
func walkCFGNode(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			return false
		}
		if m == nil {
			return true
		}
		return fn(m)
	})
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
