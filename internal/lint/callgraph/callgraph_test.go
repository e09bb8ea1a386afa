package callgraph

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// load type-checks one source string and returns the pieces Build needs.
func load(t *testing.T, src string) ([]*ast.File, *types.Info) {
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
	return []*ast.File{f}, info
}

func build(t *testing.T, src string) *Graph {
	files, info := load(t, src)
	return Build(files, info)
}

// nodeByName finds the node for the named function ("f", "T.M").
func nodeByName(t *testing.T, g *Graph, name string) *Node {
	t.Helper()
	for _, n := range g.Funcs() {
		nm := n.Decl.Name.Name
		if n.Decl.Recv != nil {
			// Render "T.M" from the receiver's named type.
			if sig, ok := n.Obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				rt := sig.Recv().Type()
				if p, ok := rt.(*types.Pointer); ok {
					rt = p.Elem()
				}
				if named, ok := rt.(*types.Named); ok {
					nm = named.Obj().Name() + "." + nm
				}
			}
		}
		if nm == name {
			return n
		}
	}
	t.Fatalf("no node named %s", name)
	return nil
}

// resolvedCallees returns the names of the in-package functions the node's
// resolved sites target (duplicates preserved, source order).
func resolvedCallees(g *Graph, n *Node) []string {
	var out []string
	for _, s := range n.Sites {
		if c := g.Node(s.Callee); c != nil {
			out = append(out, c.Decl.Name.Name)
		}
	}
	return out
}

func TestResolvesDirectAndMethodCalls(t *testing.T) {
	g := build(t, `package fix
type T struct{ n int }
func (t *T) M() { helper() }
func helper() {}
func f(t *T) {
	helper()
	t.M()
}
`)
	got := resolvedCallees(g, nodeByName(t, g, "f"))
	if len(got) != 2 || got[0] != "helper" || got[1] != "M" {
		t.Errorf("f resolved callees = %v, want [helper M]", got)
	}
}

func TestDynamicCallsResolveToUnknown(t *testing.T) {
	// Method values, function-typed fields, interface calls, and func-typed
	// locals must all degrade to the unknown callee — a false resolution
	// here would let summary derive a false "releases" fact.
	g := build(t, `package fix
type T struct {
	fn func()
}
func (t *T) M() {}
type I interface{ M() }
func f(t *T, i I, cb func()) {
	mv := t.M
	mv()     // method value
	t.fn()   // function-typed field
	i.M()    // interface dispatch
	cb()     // func-typed parameter
}
`)
	n := nodeByName(t, g, "f")
	if got := resolvedCallees(g, n); len(got) != 0 {
		t.Errorf("dynamic calls resolved to %v, want none", got)
	}
	// All four dynamic sites must still be *recorded* (as unknown).
	if len(n.Sites) != 4 {
		t.Errorf("f has %d sites, want 4 unknown sites", len(n.Sites))
	}
	for _, s := range n.Sites {
		if s.Callee != nil && g.Node(s.Callee) != nil {
			t.Errorf("site %v resolved to an in-package callee", s.Call.Fun)
		}
	}
}

func TestDeferGoAndLiteralModes(t *testing.T) {
	g := build(t, `package fix
func a() {}
func b() {}
func c() {}
func d() {}
func f() {
	a()
	defer b()
	go c()
	go func() {
		d()
	}()
	cb := func() { a() }
	_ = cb
}
`)
	n := nodeByName(t, g, "f")
	modes := make(map[string]Mode)
	lits := make(map[string]bool)
	for _, s := range n.Sites {
		if cn := g.Node(s.Callee); cn != nil {
			name := cn.Decl.Name.Name
			modes[name] = s.Mode
			lits[name] = s.InLiteral
		}
	}
	if modes["a"] != Call || modes["b"] != Defer || modes["c"] != Go {
		t.Errorf("modes = %v, want a:Call b:Defer c:Go", modes)
	}
	// d() runs on the spawned goroutine: mode Go, not InLiteral (the literal
	// is the goroutine body itself).
	if modes["d"] != Go || lits["d"] {
		t.Errorf("d: mode=%v inLiteral=%v, want Go/false", modes["d"], lits["d"])
	}
	// The second a() lives inside a stored literal: it may never run.
	sawLitA := false
	for _, s := range n.Sites {
		if cn := g.Node(s.Callee); cn != nil && cn.Decl.Name.Name == "a" && s.InLiteral {
			sawLitA = true
		}
	}
	if !sawLitA {
		t.Error("call inside a stored literal not marked InLiteral")
	}
}

func TestDeferredLiteralBodyIsDeferMode(t *testing.T) {
	g := build(t, `package fix
func cleanup() {}
func f() {
	defer func() {
		cleanup()
	}()
}
`)
	n := nodeByName(t, g, "f")
	for _, s := range n.Sites {
		if cn := g.Node(s.Callee); cn != nil && cn.Decl.Name.Name == "cleanup" {
			if s.Mode != Defer || s.InLiteral {
				t.Errorf("cleanup in deferred literal: mode=%v inLiteral=%v, want Defer/false", s.Mode, s.InLiteral)
			}
			return
		}
	}
	t.Fatal("cleanup site not recorded")
}

func TestCallInReceiverExpression(t *testing.T) {
	g := build(t, `package fix
type T struct{}
func (t *T) M() {}
func get() *T { return nil }
func f() {
	get().M()
}
`)
	got := resolvedCallees(g, nodeByName(t, g, "f"))
	want := map[string]bool{"get": false, "M": false}
	for _, name := range got {
		want[name] = true
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("call to %s not recorded (got %v)", name, got)
		}
	}
}

func TestSCCOrderBottomUp(t *testing.T) {
	// leaf <- mid <- top, plus a mutual-recursion pair {pa, pb} called by
	// top. Components must come out callees-first.
	g := build(t, `package fix
func leaf() {}
func mid() { leaf() }
func top() { mid(); pa() }
func pa() { pb() }
func pb() { pa(); leaf() }
`)
	sccs := g.SCCs()
	pos := make(map[string]int)
	for i, comp := range sccs {
		for _, n := range comp {
			pos[n.Decl.Name.Name] = i
		}
	}
	if !(pos["leaf"] < pos["mid"] && pos["mid"] < pos["top"]) {
		t.Errorf("chain order wrong: %v", pos)
	}
	if pos["pa"] != pos["pb"] {
		t.Errorf("mutual recursion split across components: %v", pos)
	}
	if !(pos["leaf"] < pos["pa"] && pos["pa"] < pos["top"]) {
		t.Errorf("cycle component ordered wrong: %v", pos)
	}
	// Cycle detection: {pa,pb} is a cycle, {leaf} is not, self-recursion is.
	for _, comp := range sccs {
		names := map[string]bool{}
		for _, n := range comp {
			names[n.Decl.Name.Name] = true
		}
		switch {
		case names["pa"]:
			if len(comp) != 2 || !InCycle(comp) {
				t.Errorf("pa/pb component wrong: %d members, InCycle=%v", len(comp), InCycle(comp))
			}
		case names["leaf"]:
			if InCycle(comp) {
				t.Error("leaf reported as cyclic")
			}
		}
	}

	g = build(t, `package fix
func self(n int) int {
	if n == 0 {
		return 0
	}
	return self(n - 1)
}
`)
	sccs = g.SCCs()
	if len(sccs) != 1 || !InCycle(sccs[0]) {
		t.Errorf("direct recursion not reported as a cycle: %v", sccs)
	}
}

func TestPackageQualifiedCalleeIsExternal(t *testing.T) {
	g := build(t, `package fix
import "strings"
func f() string {
	return strings.TrimSpace(" x ")
}
`)
	n := nodeByName(t, g, "f")
	if len(n.Sites) != 1 {
		t.Fatalf("f has %d sites, want 1", len(n.Sites))
	}
	s := n.Sites[0]
	if s.Callee == nil {
		t.Error("package-qualified call did not resolve to a *types.Func")
	}
	if g.Node(s.Callee) != nil {
		t.Error("external callee must have no in-package node")
	}
}
