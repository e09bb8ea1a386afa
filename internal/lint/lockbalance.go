package lint

import (
	"go/ast"
	"go/token"

	"repro/internal/lint/cfg"
	"repro/internal/lint/flow"
	"repro/internal/lint/summary"
)

// LockBalance reports lock/unlock imbalance on sync.Mutex and sync.RWMutex
// along every control-flow path: a path that returns (or falls off the end)
// with a lock still outstanding, an unlock with no matching lock, and an
// exclusive Lock taken while the same mutex is already held (self-deadlock).
// It replaces the v1 `lockheld` rule, whose syntactic walk could not follow
// the collector's reconnect/drain branches: a `return` inside a `select`
// clause that skipped the unlock was invisible to it.
//
// The analysis runs per function over the CFG. The state per mutex (keyed by
// the rendered receiver expression, read and write sides separately) is a
// small interval [lo,hi] bounding the outstanding count = locks − unlocks −
// deferred unlocks on the paths reaching a point; `defer mu.Unlock()` is
// credited immediately, which is exactly right for exit checks and makes the
// conditional lock-plus-defer idiom (`if x { mu.Lock(); defer mu.Unlock() }`)
// come out balanced. Joins take the interval hull; lo > 0 at a path end is a
// definite leak, hi > 0 a leak on some path. Panic-terminated paths are
// exempt by construction (they never reach the exit checks). Mutexes
// reachable only through captured variables inside nested function literals
// are each literal's own problem — every literal is analyzed separately.
var LockBalance = &Analyzer{
	Name: "lockbalance",
	Doc:  "Lock/RLock not matched by exactly one Unlock/RUnlock on every path",
	Run:  runLockBalance,
}

// lbKey identifies one lock side: the rendered receiver plus whether this
// is the read side of an RWMutex (RLock/RUnlock pair separately from
// Lock/Unlock).
type lbKey struct {
	recv string
	read bool
}

func (k lbKey) lockOp() string {
	if k.read {
		return "RLock"
	}
	return "Lock"
}

func (k lbKey) unlockOp() string {
	if k.read {
		return "RUnlock"
	}
	return "Unlock"
}

// lbIv is the outstanding-count interval. Counts are clamped to ±lbCap so
// pathological loops (for { mu.Lock() }) still reach a fixed point.
type lbIv struct{ lo, hi int8 }

const lbCap = 3

func lbClamp(v int8) int8 {
	if v > lbCap {
		return lbCap
	}
	if v < -lbCap {
		return -lbCap
	}
	return v
}

type lbState map[lbKey]lbIv

func lbClone(s lbState) lbState {
	c := make(lbState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func lbEqual(a, b lbState) bool {
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

// lbJoin hulls the intervals; a key missing on one side is [0,0] there.
func lbJoin(dst, src lbState) lbState {
	for k, sv := range src {
		dv, ok := dst[k]
		if !ok {
			dv = lbIv{}
		}
		if sv.lo < dv.lo {
			dv.lo = sv.lo
		}
		if sv.hi > dv.hi {
			dv.hi = sv.hi
		}
		dst[k] = dv
	}
	for k, dv := range dst {
		if _, ok := src[k]; !ok {
			if dv.lo > 0 {
				dv.lo = 0
			}
			if dv.hi < 0 {
				dv.hi = 0
			}
			dst[k] = dv
		}
	}
	// Normalize: [0,0] and absent are the same state.
	for k, v := range dst {
		if v == (lbIv{}) {
			delete(dst, k)
		}
	}
	return dst
}

func runLockBalance(p *Pass) {
	for _, f := range p.Files {
		for _, fn := range functionsIn(f) {
			lockBalanceFunc(p, fn)
		}
	}
}

func lockBalanceFunc(p *Pass, fn funcScope) {
	g := cfg.New(fn.body)
	prob := flow.Problem[lbState]{
		Boundary: func() lbState { return lbState{} },
		Transfer: func(b *cfg.Block, s lbState) lbState {
			lbTransfer(p, b, g, s, fn.deferredLit, nil)
			return s
		},
		Join:  lbJoin,
		Equal: lbEqual,
		Clone: lbClone,
	}
	res := flow.Solve(g, prob)

	// Replay each reachable block once from its fixed-point entry state,
	// this time with reporting enabled.
	for _, b := range g.Reachable() {
		in, ok := res.In[b]
		if !ok {
			continue
		}
		lbTransfer(p, b, g, lbClone(in), fn.deferredLit, p.reportf)
	}
}

// lbTransfer interprets one block. When report is non-nil it also emits the
// diagnostics for this block (the solver passes nil; the replay passes
// Pass.reportf). lenient relaxes the unmatched-unlock check for deferred
// literals, which release locks their enclosing function took.
func lbTransfer(p *Pass, b *cfg.Block, g *cfg.Graph, s lbState, lenient bool, report func(token.Pos, string, ...any)) {
	for _, n := range b.Nodes {
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, ok := n.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			recv, op := mutexCall(p, call)
			if op == "" {
				lbApplyCallee(p, call, s, false, lenient, report)
				continue
			}
			k := lbKey{recv: recv, read: op == "RLock" || op == "RUnlock"}
			iv := s[k]
			switch op {
			case "Lock":
				if iv.lo >= 1 && report != nil {
					report(n.Pos(), "%s.Lock() while %s is already locked on every path to here (self-deadlock)", recv, recv)
				}
				iv.lo, iv.hi = lbClamp(iv.lo+1), lbClamp(iv.hi+1)
			case "RLock":
				// Recursive read locks are legal; just count.
				iv.lo, iv.hi = lbClamp(iv.lo+1), lbClamp(iv.hi+1)
			case "Unlock", "RUnlock":
				switch {
				case iv.hi <= 0:
					if !lenient && report != nil {
						report(n.Pos(), "%s.%s() without a matching %s on any path to here", recv, op, k.lockOp())
					}
					// Do not decrement: the report already covers this, and
					// cascading negative counts would double-report.
				case iv.lo <= 0:
					if report != nil {
						report(n.Pos(), "%s.%s() but %s is not locked on every path to here", recv, op, recv)
					}
					iv.hi = lbClamp(iv.hi - 1)
				default:
					iv.lo, iv.hi = lbClamp(iv.lo-1), lbClamp(iv.hi-1)
				}
			}
			s[k] = iv

		case *ast.DeferStmt:
			for _, cr := range deferredUnlocks(p, n) {
				k := lbKey{recv: cr.recv, read: cr.read}
				iv := s[k]
				iv.lo, iv.hi = lbClamp(iv.lo-1), lbClamp(iv.hi-1)
				s[k] = iv
			}
			// A deferred in-package helper with a proven net-unlock effect
			// (`defer c.unlockAll()`) credits its unlocks immediately, the
			// same convention as `defer mu.Unlock()`.
			if _, op := mutexCall(p, n.Call); op == "" {
				if _, isLit := n.Call.Fun.(*ast.FuncLit); !isLit {
					lbApplyCallee(p, n.Call, s, true, lenient, report)
				}
			}

		case *ast.ReturnStmt:
			if report != nil {
				lbCheckExit(s, n.Pos(), "this return", report)
			}
		}
	}
	if report != nil && blockFallsToExit(b, g) {
		lbCheckExit(s, g.End, "the end of the function", report)
	}
}

// lbApplyCallee maps an in-package callee's net mutex deltas onto the
// caller's keys: a helper that provably returns holding `c.mu` (delta +1 on
// its receiver's .mu) makes the caller's count go up at the call site, so
// leaks and double-locks through helpers surface in the caller. A callee
// whose lock behavior is conditional or unknown has no delta entry and —
// like before the interprocedural tier — leaves the state untouched.
// deferred marks `defer helper()`: only unlock credits apply (the helper
// runs at exit, so lock acquisitions there are outside this accounting).
func lbApplyCallee(p *Pass, call *ast.CallExpr, s lbState, deferred, lenient bool, report func(token.Pos, string, ...any)) {
	sum := p.Sums.ForCall(call)
	if sum == nil || len(sum.MutexDelta) == 0 {
		return
	}
	for mref, delta := range sum.MutexDelta {
		base, ok := lbArgBase(call, mref.Param)
		if !ok || delta == 0 {
			continue
		}
		// Deltas beyond the interval cap behave identically to the cap.
		if delta > lbCap {
			delta = lbCap
		} else if delta < -lbCap {
			delta = -lbCap
		}
		d := int8(delta)
		k := lbKey{recv: base + mref.Path, read: mref.Read}
		iv := s[k]
		if d > 0 {
			if deferred {
				continue
			}
			if !k.read && iv.lo >= 1 && report != nil {
				report(call.Pos(), "%s locks %s which is already locked on every path to here (self-deadlock)", calleeLabel(call), k.recv)
			}
			iv.lo, iv.hi = lbClamp(iv.lo+d), lbClamp(iv.hi+d)
			s[k] = iv
			continue
		}
		for n := -d; n > 0; n-- {
			switch {
			case iv.hi <= 0:
				if !lenient && report != nil {
					report(call.Pos(), "%s unlocks %s without a matching %s on any path to here", calleeLabel(call), k.recv, k.lockOp())
				}
				// As with a direct unmatched unlock: report once, don't
				// cascade negative counts.
				n = 0
			case iv.lo <= 0:
				iv.hi = lbClamp(iv.hi - 1)
			default:
				iv.lo, iv.hi = lbClamp(iv.lo-1), lbClamp(iv.hi-1)
			}
		}
		s[k] = iv
	}
}

// lbArgBase renders the caller-side expression bound to a callee parameter
// (or receiver) as a key base.
func lbArgBase(call *ast.CallExpr, param int) (string, bool) {
	if param == summary.Recv {
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			return renderWgBase(sel.X), true
		}
		return "", false
	}
	if param < 0 || param >= len(call.Args) {
		return "", false
	}
	return renderWgBase(call.Args[param]), true
}

// lbCheckExit reports outstanding or over-credited locks at a path end.
func lbCheckExit(s lbState, pos token.Pos, where string, report func(token.Pos, string, ...any)) {
	for k, iv := range s {
		switch {
		case iv.lo > 0:
			report(pos, "%s reaches %s still locked: no %s or deferred %s on this path", k.recv, where, k.unlockOp(), k.unlockOp())
		case iv.hi > 0:
			report(pos, "%s may reach %s still locked: %s on some path to here has no %s", k.recv, where, k.lockOp(), k.unlockOp())
		case iv.hi < 0:
			report(pos, "deferred %s of %s without a matching %s on every path to %s", k.unlockOp(), k.recv, k.lockOp(), where)
		}
	}
}

type lbCredit struct {
	recv string
	read bool
}

// deferredUnlocks extracts the unlock credits a defer statement carries:
// either `defer mu.Unlock()` directly, or unlock calls inside a deferred
// function literal. Unlocks inside a deferred literal are credited
// unconditionally even if the literal guards them — a deliberate
// approximation (the guard almost always tests "did we lock", which the
// interval already models).
func deferredUnlocks(p *Pass, d *ast.DeferStmt) []lbCredit {
	if recv, op := mutexCall(p, d.Call); op == "Unlock" || op == "RUnlock" {
		return []lbCredit{{recv: recv, read: op == "RUnlock"}}
	}
	lit, ok := d.Call.Fun.(*ast.FuncLit)
	if !ok {
		return nil
	}
	var out []lbCredit
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, op := mutexCall(p, call); op == "Unlock" || op == "RUnlock" {
			out = append(out, lbCredit{recv: recv, read: op == "RUnlock"})
		}
		return true
	})
	return out
}
