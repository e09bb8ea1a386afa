package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WallClock reports wall-clock and global-randomness reads reachable from
// the deterministic analysis cone. The byte-identity contract — sharded and
// distributed runs produce identical cluster output — only holds if nothing
// on the analysis path observes time.Now, timer channels, or the global
// rand source; PR 7's GOMAXPROCS=4 digest bit-flip took a week to corner
// precisely because the nondeterminism entered through an innocent-looking
// helper. The rule is the static form of that lesson: inside the cone
// packages every wall-clock read must either be threaded through an
// explicit clock/seed in the config, or named on the allowlist (ingestion
// deadlines and reconnect backoff are legitimately wall-clock-bound).
//
// A function with a direct read is reported at each read site. The taint
// then propagates up the package call graph: calling an allowlisted
// function from non-allowlisted code is reported at the call site (the
// allowlist excuses the function, not its callers); calling a tainted but
// non-allowlisted function is not re-reported — the finding already exists
// at the deeper frame. Package-level variable initializers have no
// allowlist: init order runs before any config exists.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "wall-clock time or global randomness reachable from the deterministic analysis cone",
	Run:  runWallClock,
}

// wallClockCone is the set of import paths holding the deterministic
// analysis pipeline: epoch aggregation and clustering, critical-cluster
// detection, hierarchical heavy hitters, and the distributed merge path.
// corpus/wallclock_basic is the fixture package.
var wallClockCone = map[string]bool{
	"repro/internal/core":         true,
	"repro/internal/core/cktable": true,
	"repro/internal/core/eps":     true,
	"repro/internal/cluster":      true,
	"repro/internal/critical":     true,
	"repro/internal/hhh":          true,
	"repro/internal/ingest":       true,
	"repro/internal/window":       true,
	"corpus/wallclock_basic":      true,
	"corpus/wallclock_broken":     true,
}

// wallClockAllow names functions ("Recv.Name" or "Name") excused per
// package: connection deadlines, graceful-shutdown timeouts, and reconnect
// backoff are wall-clock-bound by design and sit outside the merge path.
var wallClockAllow = map[string][]string{
	"repro/internal/ingest": {
		// Connection read deadlines, the accept loop that spawns them, and
		// the Serve entry point that starts it.
		"Aggregator.serveConn",
		"Aggregator.acceptLoop",
		"Aggregator.Serve",
		"Aggregator.Listen",
		// Graceful-drain timeouts.
		"Aggregator.CloseGrace",
		"Aggregator.Close",
		// Reconnect backoff, its driver loop, and the constructor that
		// starts the loop.
		"Relay.announce",
		"Relay.run",
		"NewRelay",
		"StartNode",
	},
	"corpus/wallclock_basic": {"backoffAllowed"},
}

// wallClockTimeFuncs are the time-package reads that observe the wall (or a
// runtime timer): conversions and arithmetic on time.Duration are fine.
var wallClockTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

func runWallClock(p *Pass) {
	if !wallClockCone[p.Pkg.Path()] {
		return
	}
	allowed := map[string]bool{}
	for _, name := range wallClockAllow[p.Pkg.Path()] {
		allowed[name] = true
	}

	type siteInfo struct {
		pos  token.Pos
		what string
	}
	directSites := map[*ast.FuncDecl][]siteInfo{}
	var decls []*ast.FuncDecl

	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Body == nil {
					continue
				}
				decls = append(decls, decl)
				d := decl
				ast.Inspect(decl.Body, func(n ast.Node) bool {
					if pos, what, ok := wallClockSite(p, n); ok {
						directSites[d] = append(directSites[d], siteInfo{pos, what})
					}
					return true
				})
			case *ast.GenDecl:
				if decl.Tok != token.VAR {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if pos, what, ok := wallClockSite(p, n); ok {
						p.Reportf(pos, "%s in a package-level initializer of the deterministic analysis cone", what)
					}
					return true
				})
			}
		}
	}

	// Taint closure over the package call graph: a function is tainted if
	// it reads the clock directly or calls a tainted in-package function
	// (any call mode — a spawned timer loop is still the cone's
	// nondeterminism).
	tainted := map[*types.Func]bool{}
	g := p.Sums.Graph()
	for _, decl := range decls {
		if len(directSites[decl]) > 0 {
			if fn := wallClockObj(p, decl); fn != nil {
				tainted[fn] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, node := range g.Funcs() {
			if tainted[node.Obj] {
				continue
			}
			for _, site := range node.Sites {
				if site.Callee != nil && tainted[site.Callee] {
					tainted[node.Obj] = true
					changed = true
					break
				}
			}
		}
	}

	allowedObjs := map[*types.Func]bool{}
	for _, decl := range decls {
		if allowed[wallClockName(decl)] {
			if fn := wallClockObj(p, decl); fn != nil {
				allowedObjs[fn] = true
			}
		}
	}

	for _, decl := range decls {
		if allowed[wallClockName(decl)] {
			continue
		}
		for _, site := range directSites[decl] {
			p.Reportf(site.pos, "%s in the deterministic analysis cone; thread a clock through the config or allowlist %s", site.what, wallClockName(decl))
		}
		fn := wallClockObj(p, decl)
		if fn == nil {
			continue
		}
		node := g.Node(fn)
		if node == nil {
			continue
		}
		for _, site := range node.Sites {
			if site.Callee != nil && allowedObjs[site.Callee] && tainted[site.Callee] {
				p.Reportf(site.Call.Pos(), "call to %s, which reads the wall clock, from non-allowlisted code in the deterministic analysis cone", site.Callee.Name())
			}
		}
	}
}

// wallClockSite classifies one AST node as a wall-clock or global-rand
// read, returning its position and description.
func wallClockSite(p *Pass, n ast.Node) (token.Pos, string, bool) {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return token.NoPos, "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return token.NoPos, "", false
	}
	var pkgPath string
	if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
		pkgPath = pn.Imported().Path()
	} else if p.Info.Uses[id] == nil && p.Info.Defs[id] == nil {
		// Unresolved identifier (synthesized AST in the mutation harness):
		// fall back to the syntactic package name.
		switch id.Name {
		case "time":
			pkgPath = "time"
		case "rand":
			pkgPath = "math/rand"
		}
	}
	switch pkgPath {
	case "time":
		if wallClockTimeFuncs[sel.Sel.Name] {
			return sel.Pos(), "call to time." + sel.Sel.Name, true
		}
	case "math/rand", "math/rand/v2":
		// Package-level functions read the shared global source; rand.New /
		// rand.NewSource / rand.NewZipf build explicitly seeded generators,
		// and method calls on those are deterministic.
		if len(sel.Sel.Name) >= 3 && sel.Sel.Name[:3] == "New" {
			return token.NoPos, "", false
		}
		switch p.Info.Uses[sel.Sel].(type) {
		case *types.Func, nil:
			return sel.Pos(), "global rand." + sel.Sel.Name, true
		}
	}
	return token.NoPos, "", false
}

// wallClockName renders a decl as the allowlist key: "Recv.Name" for
// methods, "Name" for functions.
func wallClockName(decl *ast.FuncDecl) string {
	if decl.Recv != nil && len(decl.Recv.List) > 0 {
		t := decl.Recv.List[0].Type
		if st, ok := t.(*ast.StarExpr); ok {
			t = st.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + decl.Name.Name
		}
	}
	return decl.Name.Name
}

func wallClockObj(p *Pass, decl *ast.FuncDecl) *types.Func {
	fn, _ := p.Info.Defs[decl.Name].(*types.Func)
	return fn
}
