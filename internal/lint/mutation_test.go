package lint

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"
)

// TestMutationKill proves the concurrency analyzers guard real code, not
// just fixtures: each case applies one small mutation to the heartbeat
// layer's AST — the kind of edit a careless refactor makes — and asserts
// vqlint fails on the mutated package with the expected rule. The package is
// reloaded per case because mutations are destructive; type information
// survives node removal and duplication since it is keyed by node identity.
func TestMutationKill(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks internal/heartbeat repeatedly")
	}
	cases := []struct {
		name string
		rule string
		// mutate edits the package in place and reports whether it found
		// its target — a false return means the real code changed shape and
		// the test must be updated, not silently skipped.
		mutate  func(pkg *Package) bool
		wantMsg string
	}{
		{
			name:    "delete wg.Done in Spool.run",
			rule:    "wgbalance",
			mutate:  func(pkg *Package) bool { return deleteStmt(pkg, "Spool", "run", isWgDoneDefer) },
			wantMsg: "counter is still positive",
		},
		{
			name:    "duplicate close(done) in Server.CloseGrace's waiter",
			rule:    "chandiscipline",
			mutate:  duplicateWaiterClose,
			wantMsg: "already closed on every path",
		},
		{
			name:    "delete the exits of Server.acceptLoop",
			rule:    "goleak",
			mutate:  func(pkg *Package) bool { return deleteStmt(pkg, "Server", "acceptLoop", isReturn) },
			wantMsg: "can run forever with no channel operation",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkgs, err := Load("../..", []string{"./internal/heartbeat"})
			if err != nil {
				t.Fatalf("loading internal/heartbeat: %v", err)
			}
			if len(pkgs) != 1 {
				t.Fatalf("loaded %d packages, want 1", len(pkgs))
			}
			pkg := pkgs[0]
			if !tc.mutate(pkg) {
				t.Fatal("mutation target not found; the heartbeat layer changed shape — update this test")
			}
			diags := Run(pkgs, All())
			for _, d := range diags {
				if d.Rule == tc.rule && strings.Contains(d.Msg, tc.wantMsg) {
					return
				}
			}
			t.Errorf("mutation survived: no %s diagnostic matching %q; got:\n%s",
				tc.rule, tc.wantMsg, formatDiags(diags))
		})
	}
}

// TestHeartbeatCleanBeforeMutation is the control: the unmutated package
// must be finding-free, so every TestMutationKill hit is caused by its
// mutation alone.
func TestHeartbeatCleanBeforeMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks internal/heartbeat")
	}
	pkgs, err := Load("../..", []string{"./internal/heartbeat"})
	if err != nil {
		t.Fatalf("loading internal/heartbeat: %v", err)
	}
	if diags := Run(pkgs, All()); len(diags) != 0 {
		t.Errorf("unmutated heartbeat layer has findings:\n%s", formatDiags(diags))
	}
}

// TestDeterminismMutationKill proves the determinism analyzers guard the
// exact-attribution contract on the real merge path: removing either
// canonical-order sort, reordering the parallel merge against its Release,
// or letting a wall-clock read into the cone must each fail vqlint.
func TestDeterminismMutationKill(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks cone packages repeatedly")
	}
	cases := []struct {
		name    string
		pattern string
		rule    string
		mutate  func(pkg *Package) bool
		wantMsg string
	}{
		{
			name:    "delete the epoch sort in Aggregator.OpenEpochs",
			pattern: "./internal/ingest",
			rule:    "detorder",
			mutate: func(pkg *Package) bool {
				return deleteStmt(pkg, "Aggregator", "OpenEpochs", isSortSliceOf("out"))
			},
			wantMsg: "out accumulates map keys in map order",
		},
		{
			name:    "delete the ProblemKeys sort in core summarize",
			pattern: "./internal/core",
			rule:    "detorder",
			mutate: func(pkg *Package) bool {
				fn := findFunc(pkg, "summarize")
				return fn != nil && deleteStmtIn(fn, isSortSliceOf("ms.ProblemKeys"))
			},
			wantMsg: "ms.ProblemKeys accumulates map keys in map order",
		},
		{
			name:    "swap Merge and Release in NewTableParallel's tree merge",
			pattern: "./internal/cluster",
			rule:    "poollifetime",
			mutate:  swapMergeRelease,
			wantMsg: "use of shards[src] after its release",
		},
		{
			name:    "insert a time.Now read into core summarize",
			pattern: "./internal/core",
			rule:    "wallclock",
			mutate: func(pkg *Package) bool {
				fn := findFunc(pkg, "summarize")
				return fn != nil && insertTimeNow(fn)
			},
			wantMsg: "call to time.Now in the deterministic analysis cone",
		},
		{
			// The sliding-window engine's clock must come from heartbeat
			// timestamps, never the wall: a time.Now smuggled into the
			// advance path is exactly the edit that would silently break
			// batch/streaming byte-identity.
			name:    "insert a time.Now read into window Engine.Advance",
			pattern: "./internal/window",
			rule:    "wallclock",
			mutate: func(pkg *Package) bool {
				fn := findMethod(pkg, "Engine", "Advance")
				return fn != nil && insertTimeNow(fn)
			},
			wantMsg: "call to time.Now in the deterministic analysis cone",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkgs, err := Load("../..", []string{tc.pattern})
			if err != nil {
				t.Fatalf("loading %s: %v", tc.pattern, err)
			}
			if len(pkgs) != 1 {
				t.Fatalf("loaded %d packages, want 1", len(pkgs))
			}
			if !tc.mutate(pkgs[0]) {
				t.Fatal("mutation target not found; the code changed shape — update this test")
			}
			diags := Run(pkgs, All())
			for _, d := range diags {
				if d.Rule == tc.rule && strings.Contains(d.Msg, tc.wantMsg) {
					return
				}
			}
			t.Errorf("mutation survived: no %s diagnostic matching %q; got:\n%s",
				tc.rule, tc.wantMsg, formatDiags(diags))
		})
	}
}

// TestConeCleanBeforeMutation is the control for the determinism mutations:
// each target package must be finding-free unmutated, so every
// TestDeterminismMutationKill hit is caused by its mutation alone.
func TestConeCleanBeforeMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks four cone packages")
	}
	for _, pattern := range []string{"./internal/ingest", "./internal/core", "./internal/cluster", "./internal/window"} {
		pkgs, err := Load("../..", []string{pattern})
		if err != nil {
			t.Fatalf("loading %s: %v", pattern, err)
		}
		if diags := Run(pkgs, All()); len(diags) != 0 {
			t.Errorf("unmutated %s has findings:\n%s", pattern, formatDiags(diags))
		}
	}
}

// isSortSliceOf matches `sort.Slice(<target>, …)` statements by the
// rendering of the first argument.
func isSortSliceOf(target string) func(ast.Stmt) bool {
	return func(s ast.Stmt) bool {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Slice" {
			return false
		}
		if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "sort" {
			return false
		}
		return types.ExprString(call.Args[0]) == target
	}
}

// swapMergeRelease reorders the pairwise tree-merge closure in
// NewTableParallel to release the source shard before merging it — the
// use-after-release a careless "free early" refactor introduces. Moving the
// original nodes keeps their type information valid.
func swapMergeRelease(pkg *Package) bool {
	fn := findFunc(pkg, "NewTableParallel")
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok || found {
			return !found
		}
		list := lit.Body.List
		for i := 0; i+1 < len(list); i++ {
			if isMethodCallStmt(list[i], "Merge") && isMethodCallStmt(list[i+1], "Release") {
				list[i], list[i+1] = list[i+1], list[i]
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isMethodCallStmt(s ast.Stmt, name string) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}

// insertTimeNow prepends a synthesized `time.Now()` statement to fn's body.
// The new identifiers resolve to nothing in the type info — exactly the
// state the wallclock analyzer's syntactic fallback exists for.
func insertTimeNow(fn *ast.FuncDecl) bool {
	if fn.Body == nil || len(fn.Body.List) == 0 {
		return false
	}
	pos := fn.Body.List[0].Pos()
	timeID := ast.NewIdent("time")
	timeID.NamePos = pos
	nowID := ast.NewIdent("Now")
	nowID.NamePos = pos
	stmt := &ast.ExprStmt{X: &ast.CallExpr{
		Fun:    &ast.SelectorExpr{X: timeID, Sel: nowID},
		Lparen: pos,
		Rparen: pos,
	}}
	fn.Body.List = append([]ast.Stmt{stmt}, fn.Body.List...)
	return true
}

// findFunc locates a plain (non-method) function declaration by name.
func findFunc(pkg *Package, name string) *ast.FuncDecl {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Recv == nil && fd.Name.Name == name && fd.Body != nil {
				return fd
			}
		}
	}
	return nil
}

func isWgDoneDefer(s ast.Stmt) bool {
	d, ok := s.(*ast.DeferStmt)
	if !ok {
		return false
	}
	sel, ok := d.Call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Done"
}

func isReturn(s ast.Stmt) bool {
	_, ok := s.(*ast.ReturnStmt)
	return ok
}

// deleteStmt removes every statement matching pred (at any nesting depth)
// from the named method's body.
func deleteStmt(pkg *Package, recvName, funcName string, pred func(ast.Stmt) bool) bool {
	fn := findMethod(pkg, recvName, funcName)
	if fn == nil {
		return false
	}
	return deleteStmtIn(fn, pred)
}

// deleteStmtIn removes every statement matching pred from fn's body.
func deleteStmtIn(fn *ast.FuncDecl, pred func(ast.Stmt) bool) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		kept := block.List[:0]
		for _, s := range block.List {
			if pred(s) {
				found = true
				continue
			}
			kept = append(kept, s)
		}
		block.List = kept
		return true
	})
	return found
}

// duplicateWaiterClose doubles the close(done) statement inside the waiter
// goroutine literal of Server.CloseGrace. Reusing the original node keeps
// its type information valid, and the second occurrence runs with the
// channel already definitely closed.
func duplicateWaiterClose(pkg *Package) bool {
	fn := findMethod(pkg, "Server", "CloseGrace")
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok || found {
			return !found
		}
		for i, s := range lit.Body.List {
			es, ok := s.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "close" {
				continue
			}
			lit.Body.List = append(lit.Body.List[:i+1], append([]ast.Stmt{es}, lit.Body.List[i+1:]...)...)
			found = true
			return false
		}
		return true
	})
	return found
}

// findMethod locates recvName's method by name (several heartbeat types
// have a Close, so the receiver matters).
func findMethod(pkg *Package, recvName, name string) *ast.FuncDecl {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != name || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			t := fd.Recv.List[0].Type
			if star, ok := t.(*ast.StarExpr); ok {
				t = star.X
			}
			if id, ok := t.(*ast.Ident); ok && id.Name == recvName {
				return fd
			}
		}
	}
	return nil
}
