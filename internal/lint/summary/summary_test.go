package summary

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/lint/callgraph"
)

// compute type-checks src and returns the summary set plus a name lookup.
func compute(t *testing.T, src string) (*Set, func(string) *Summary) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", nil)}
	if _, err := conf.Check("fix", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	g := callgraph.Build([]*ast.File{f}, info)
	set := Compute(g, info)
	byName := func(name string) *Summary {
		for _, n := range g.Funcs() {
			if n.Decl.Name.Name == name {
				if s := set.Of(n.Obj); s != nil {
					return s
				}
				t.Fatalf("no summary for %s", name)
			}
		}
		t.Fatalf("no function named %s", name)
		return nil
	}
	return set, byName
}

const poolSrc = `package fix
type Res struct{}
func (r *Res) Release() {}
`

func TestReleasesDirectAndViaHelper(t *testing.T) {
	_, sum := compute(t, poolSrc+`
func direct(r *Res) { r.Release() }
func viaHelper(r *Res) { direct(r) }
func viaDefer(r *Res) { defer r.Release() }
func conditional(r *Res, c bool) {
	if c {
		r.Release()
	}
}
`)
	for _, name := range []string{"direct", "viaHelper", "viaDefer"} {
		if !sum(name).Releases[Ref{Param: 0}] {
			t.Errorf("%s: missing Releases fact for param 0", name)
		}
	}
	if sum("conditional").Releases[Ref{Param: 0}] {
		t.Error("conditional release must not produce a must-fact")
	}
}

func TestMutualRecursionFixpoint(t *testing.T) {
	// relA/relB release on the base case and recurse otherwise: the
	// optimistic descent must keep the fact. badA/badB have a non-releasing
	// path, so the fixpoint must drop it.
	_, sum := compute(t, poolSrc+`
func relA(r *Res, c bool) {
	if c {
		r.Release()
		return
	}
	relB(r, c)
}
func relB(r *Res, c bool) { relA(r, true) }
func badA(r *Res, c bool) {
	if c {
		return
	}
	badB(r)
}
func badB(r *Res) { badA(r, false) }
`)
	if !sum("relA").Releases[Ref{Param: 0}] || !sum("relB").Releases[Ref{Param: 0}] {
		t.Error("release through mutual recursion lost by the fixpoint")
	}
	if sum("badA").Releases[Ref{Param: 0}] || sum("badB").Releases[Ref{Param: 0}] {
		t.Error("non-releasing recursion gained a false Releases fact")
	}
}

func TestInterfaceCallDegradesToUnknown(t *testing.T) {
	// Handing the value to an interface method that "looks like" a releaser
	// must not produce a fact: the dispatch is dynamic.
	_, sum := compute(t, poolSrc+`
type Releaser interface{ ReleaseAll(r *Res) }
func throughIface(r *Res, rel Releaser) {
	rel.ReleaseAll(r)
}
func throughFuncValue(r *Res, f func(*Res)) {
	f(r)
}
`)
	if len(sum("throughIface").Releases) != 0 {
		t.Error("interface call produced a false Releases fact")
	}
	if len(sum("throughFuncValue").Releases) != 0 {
		t.Error("func-value call produced a false Releases fact")
	}
}

func TestMutexDeltaHelpers(t *testing.T) {
	_, sum := compute(t, `package fix
import "sync"
type store struct {
	mu sync.RWMutex
	n  int
}
func lockIt(s *store) { s.mu.Lock() }
func unlockIt(s *store) { s.mu.Unlock() }
func (s *store) unlockMe() { s.mu.Unlock() }
func balanced(s *store) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}
func viaHelpers(s *store) {
	lockIt(s)
	s.n++
	unlockIt(s)
}
func conditionalLock(s *store, c bool) {
	if c {
		s.mu.Lock()
	}
}
func readSide(s *store) { s.mu.RLock() }
`)
	wKey := MutexRef{Ref: Ref{Param: 0, Path: ".mu"}}
	if d := sum("lockIt").MutexDelta[wKey]; d != 1 {
		t.Errorf("lockIt delta = %d, want 1", d)
	}
	if d := sum("unlockIt").MutexDelta[wKey]; d != -1 {
		t.Errorf("unlockIt delta = %d, want -1", d)
	}
	recvKey := MutexRef{Ref: Ref{Param: Recv, Path: ".mu"}}
	if d := sum("unlockMe").MutexDelta[recvKey]; d != -1 {
		t.Errorf("unlockMe receiver delta = %d, want -1", d)
	}
	if d, ok := sum("balanced").MutexDelta[wKey]; ok && d != 0 {
		t.Errorf("balanced delta = %d, want 0/absent", d)
	}
	if d, ok := sum("viaHelpers").MutexDelta[wKey]; ok && d != 0 {
		t.Errorf("viaHelpers delta = %d, want 0/absent (helper deltas must compose)", d)
	}
	if _, ok := sum("conditionalLock").MutexDelta[wKey]; ok {
		t.Error("conditional lock must not produce an exact delta")
	}
	rKey := MutexRef{Ref: Ref{Param: 0, Path: ".mu"}, Read: true}
	if d := sum("readSide").MutexDelta[rKey]; d != 1 {
		t.Errorf("readSide RLock delta = %d, want 1", d)
	}
}

func TestClosesAndWaitGroup(t *testing.T) {
	_, sum := compute(t, `package fix
import "sync"
type C struct {
	wg sync.WaitGroup
	ch chan int
}
func closeIt(ch chan int) { close(ch) }
func closeDeferred(ch chan int) { defer close(ch) }
func closeField(c *C) { close(c.ch) }
func closeMaybe(ch chan int, c bool) {
	if c {
		close(ch)
	}
}
func (c *C) track() { c.wg.Add(1) }
func (c *C) done() { defer c.wg.Done() }
func (c *C) spawnBalanced() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
	}()
}
func addVar(wg *sync.WaitGroup, n int) { wg.Add(n) }
`)
	if !sum("closeIt").Closes[Ref{Param: 0}] || !sum("closeDeferred").Closes[Ref{Param: 0}] {
		t.Error("close fact missing for direct/deferred close")
	}
	if !sum("closeField").Closes[Ref{Param: 0, Path: ".ch"}] {
		t.Error("close fact missing for field channel")
	}
	if len(sum("closeMaybe").Closes) != 0 {
		t.Error("conditional close must not be a must-fact")
	}
	wgRecv := Ref{Param: Recv, Path: ".wg"}
	if d := sum("track").WgDelta[wgRecv]; d != 1 {
		t.Errorf("track WgDelta = %d, want 1", d)
	}
	if d := sum("done").WgDelta[wgRecv]; d != -1 {
		t.Errorf("done WgDelta = %d, want -1", d)
	}
	if d, ok := sum("spawnBalanced").WgDelta[wgRecv]; ok && d != 0 {
		t.Errorf("spawnBalanced WgDelta = %d, want 0/absent (goroutine Done credits)", d)
	}
	if _, ok := sum("addVar").WgDelta[Ref{Param: 0}]; ok {
		t.Error("variable Add count must poison the delta, not record one")
	}
}

func TestErrorClassification(t *testing.T) {
	_, sum := compute(t, `package fix
import (
	"errors"
	"fmt"
)
func alwaysNil() error { return nil }
func neverNil() error { return errors.New("boom") }
func neverNilF(n int) error { return fmt.Errorf("bad %d", n) }
func passThrough() error { return alwaysNil() }
func mixed(c bool) error {
	if c {
		return errors.New("x")
	}
	return nil
}
func opaque(f func() error) error { return f() }
`)
	if sum("alwaysNil").Error != ErrAlwaysNil || sum("passThrough").Error != ErrAlwaysNil {
		t.Error("always-nil classification failed")
	}
	if sum("neverNil").Error != ErrNeverNil || sum("neverNilF").Error != ErrNeverNil {
		t.Error("never-nil classification failed")
	}
	if sum("mixed").Error != ErrUnknown || sum("opaque").Error != ErrUnknown {
		t.Error("unclassifiable results must stay unknown")
	}
}

func TestTerminationFacts(t *testing.T) {
	_, sum := compute(t, `package fix
func spin() {
	for {
	}
}
func wrapper() { spin() }
func eventLoop(ch chan int, out chan int) {
	for {
		v := <-ch
		out <- v
	}
}
func drain(ch chan int) {
	for range ch {
	}
}
func blockForever() {
	select {}
}
func pure(a, b int) int { return a + b }
`)
	for _, name := range []string{"spin", "wrapper", "blockForever"} {
		s := sum(name)
		if !s.NeverTerminates || !s.StuckNoComm {
			t.Errorf("%s: NeverTerminates=%v StuckNoComm=%v, want true/true", name, s.NeverTerminates, s.StuckNoComm)
		}
	}
	el := sum("eventLoop")
	if !el.NeverTerminates {
		t.Error("eventLoop: channel loop without return still never terminates")
	}
	if el.StuckNoComm {
		t.Error("eventLoop: a loop with channel ops is externally signallable")
	}
	d := sum("drain")
	if d.NeverTerminates || d.StuckNoComm {
		t.Error("drain: range over channel terminates on close")
	}
	p := sum("pure")
	if p.NeverTerminates || p.StuckNoComm || len(p.Releases)+len(p.Closes)+len(p.MutexDelta)+len(p.WgDelta) != 0 {
		t.Error("pure function must have an empty summary")
	}
}

func TestUnknownCalleePoisonsPassedSync(t *testing.T) {
	// Locking, then handing the lock's owner to an unknown callee: the
	// delta can no longer be vouched for.
	_, sum := compute(t, `package fix
import "sync"
type store struct{ mu sync.Mutex }
func leaky(s *store, f func(*store)) {
	s.mu.Lock()
	f(s)
}
func harmless(s *store, n int) int {
	s.mu.Lock()
	println(n)
	s.mu.Unlock()
	return n
}
`)
	if _, ok := sum("leaky").MutexDelta[MutexRef{Ref: Ref{Param: 0, Path: ".mu"}}]; ok {
		t.Error("delta survived an unknown callee that received the lock owner")
	}
	if d, ok := sum("harmless").MutexDelta[MutexRef{Ref: Ref{Param: 0, Path: ".mu"}}]; ok && d != 0 {
		t.Errorf("harmless delta = %d, want 0/absent (int arg cannot reach the mutex)", d)
	}
}

func TestReassignedParamDropsFacts(t *testing.T) {
	_, sum := compute(t, poolSrc+`
func reassigned(r *Res) {
	r = &Res{}
	r.Release()
}
`)
	if sum("reassigned").Releases[Ref{Param: 0}] {
		t.Error("release after param reassignment is not a fact about the caller's value")
	}
}
