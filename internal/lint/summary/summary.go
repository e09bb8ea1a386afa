// Package summary computes per-function facts for the interprocedural tier
// of internal/lint: what a function provably does to the values reachable
// from its parameters (releases a pooled value, unlocks a mutex, closes a
// channel, balances a WaitGroup), what its error result looks like across
// all returns, and whether it can fail to terminate. The path-sensitive
// analyzers consume these facts at call sites, so a `Release` buried in a
// helper is no longer invisible to `poolrelease`, and a lock-courier helper
// no longer trips `lockbalance`.
//
// Facts are "must" facts unless documented otherwise: guaranteed on every
// path that returns normally. They are computed bottom-up over the SCCs of
// the package call graph; inside a cyclic component the release/close facts
// start optimistic (the greatest-fixpoint convention for must-analyses, so
// a base-case release survives recursion) and descend to a fixed point,
// while numeric deltas and error facts stay pessimistic through cycles.
// A call whose callee is unknown (interface dispatch, func value) or lives
// outside the package poisons the facts of any argument through which the
// callee could reach a sync primitive or channel — an unknown callee may do
// anything, so it proves nothing.
package summary

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/callgraph"
)

// Recv is the Param index of the method receiver.
const Recv = -1

// Ref names a value reachable from a parameter of the summarized function:
// the parameter itself (Path == "") or a chain of field selections on it
// (".mu", ".wg").
type Ref struct {
	Param int
	Path  string
}

// MutexRef is one lock side of a mutex ref: the write side, or the read
// (RLock/RUnlock) side of an RWMutex.
type MutexRef struct {
	Ref
	Read bool
}

// ErrResult classifies a function's error result across all returns.
type ErrResult uint8

const (
	// ErrUnknown: the analysis cannot classify the result.
	ErrUnknown ErrResult = iota
	// ErrAlwaysNil: every return yields a nil error.
	ErrAlwaysNil
	// ErrNeverNil: every return yields a non-nil error.
	ErrNeverNil
)

// Summary is the derived facts of one declared function. A missing entry
// always means "unknown", never "provably does not" — consumers must treat
// absence exactly as they treat an unknown callee.
type Summary struct {
	// Releases: the ref reaches Release/Put on every normal return.
	Releases map[Ref]bool
	// Closes: the channel ref is closed on every normal return (deferred
	// closes count — they run before the call returns to the caller).
	Closes map[Ref]bool
	// MutexDelta: exact net Lock-minus-Unlock count per mutex ref, present
	// only when every normal return agrees (and no unknown callee touched
	// the ref). Negative values are the lock-courier helpers.
	MutexDelta map[MutexRef]int
	// WgDelta: net WaitGroup Add-minus-Done count per ref. By convention a
	// goroutine the function spawns contributes its Done calls as immediate
	// credit — the accounting the wgbalance analyzer uses, not a strict
	// happens-before fact.
	WgDelta map[Ref]int
	// Error classifies the last result when it has type error.
	Error ErrResult
	// NeverTerminates: no path from entry can reach a normal return or a
	// panic-shaped sink — every execution loops or blocks forever.
	NeverTerminates bool
	// StuckNoComm: some reachable region never terminates AND contains no
	// channel operation — a busy loop or select{} that nothing external can
	// ever signal. The goleak analyzer's flag condition for spawned callees.
	StuckNoComm bool
	// OrderSensitive: each call may emit order-sensitive output — a write to
	// an io.Writer or hash (Write*), fmt printing, a report-builder row, or a
	// floating-point accumulation into state that outlives the call
	// (receiver, parameter, package-level variable) — directly or via a
	// synchronous in-package callee. Calling such a function from inside a
	// map-range loop makes the iteration order observable. May-fact.
	OrderSensitive bool
	// EstablishesOrder: the ref (a slice reachable from a param/receiver) is
	// handed to a sort.*/slices.Sort* call on every normal return, so the
	// caller may rely on the value being sorted afterwards. Must-fact; the
	// detorder analyzer uses it to see helper-performed sorts.
	EstablishesOrder map[Ref]bool

	// poisoned/paramPoison record refs whose numeric facts disagreed across
	// paths or escaped to an unknown callee; they propagate caller-ward
	// during computation but are deliberately unexported — consumers treat
	// a poisoned ref the same as an absent fact.
	poisoned    map[effKey]bool
	paramPoison map[int]bool
}

// ParamUncertain reports whether the summary lost track of what the
// function does to values reachable from parameter idx (Recv for the
// receiver): the parameter was reassigned, escaped to an unknown callee, or
// its effects disagreed across paths. Consumers that rely on "no fact means
// no effect" (wgbalance's delta accounting) must treat an uncertain
// parameter as unanalyzable rather than unaffected.
func (s *Summary) ParamUncertain(idx int) bool {
	if s.paramPoison[idx] {
		return true
	}
	for k := range s.poisoned {
		if k.ref.Param == idx {
			return true
		}
	}
	return false
}

// Set holds the summaries of one package.
type Set struct {
	graph *callgraph.Graph
	info  *types.Info
	sums  map[*types.Func]*Summary
}

// Of returns the summary for fn, or nil when fn is not a declared function
// of this package.
func (s *Set) Of(fn *types.Func) *Summary {
	if s == nil || fn == nil {
		return nil
	}
	return s.sums[fn]
}

// ForCall resolves call's callee and returns its summary, or nil for
// unknown, external, or unsummarized callees.
func (s *Set) ForCall(call *ast.CallExpr) *Summary {
	if s == nil {
		return nil
	}
	return s.Of(callgraph.Callee(s.info, call))
}

// Graph returns the call graph the set was computed over.
func (s *Set) Graph() *callgraph.Graph { return s.graph }

// Compute derives summaries for every declared function in the package,
// bottom-up over the call-graph SCCs.
func Compute(g *callgraph.Graph, info *types.Info) *Set {
	set := &Set{graph: g, info: info, sums: make(map[*types.Func]*Summary)}
	for _, scc := range g.SCCs() {
		set.computeSCC(scc)
	}
	return set
}

// sccRounds bounds the optimistic-descent iterations inside one cyclic
// component; the lattice is finite and descent is monotone, so this is a
// backstop, not a budget that real code reaches.
const sccRounds = 10

func (set *Set) computeSCC(scc []*callgraph.Node) {
	cyclic := callgraph.InCycle(scc)
	// First round: members of a cycle see their in-SCC callees as the
	// optimistic universal summary (releases/closes everything handed to
	// them, numeric deltas poisoned).
	for _, n := range scc {
		set.sums[n.Obj] = set.computeOne(n, sccMembers(scc), true)
	}
	if !cyclic {
		return
	}
	for round := 0; round < sccRounds; round++ {
		changed := false
		for _, n := range scc {
			next := set.computeOne(n, sccMembers(scc), false)
			if !summariesEqual(set.sums[n.Obj], next) {
				changed = true
			}
			set.sums[n.Obj] = next
		}
		if !changed {
			return
		}
	}
}

func sccMembers(scc []*callgraph.Node) map[*types.Func]bool {
	m := make(map[*types.Func]bool, len(scc))
	for _, n := range scc {
		m[n.Obj] = true
	}
	return m
}

func summariesEqual(a, b *Summary) bool {
	if len(a.Releases) != len(b.Releases) || len(a.Closes) != len(b.Closes) ||
		len(a.MutexDelta) != len(b.MutexDelta) || len(a.WgDelta) != len(b.WgDelta) ||
		len(a.EstablishesOrder) != len(b.EstablishesOrder) ||
		a.Error != b.Error || a.NeverTerminates != b.NeverTerminates ||
		a.StuckNoComm != b.StuckNoComm ||
		a.OrderSensitive != b.OrderSensitive {
		return false
	}
	for k := range a.EstablishesOrder {
		if !b.EstablishesOrder[k] {
			return false
		}
	}
	for k := range a.Releases {
		if !b.Releases[k] {
			return false
		}
	}
	for k := range a.Closes {
		if !b.Closes[k] {
			return false
		}
	}
	for k, v := range a.MutexDelta {
		if bv, ok := b.MutexDelta[k]; !ok || bv != v {
			return false
		}
	}
	for k, v := range a.WgDelta {
		if bv, ok := b.WgDelta[k]; !ok || bv != v {
			return false
		}
	}
	return true
}
