package lint

import (
	"go/ast"
	"go/types"
)

// GoLeak reports go statements that spawn a goroutine which can reach a
// state where it spins or blocks forever with no channel operation anywhere
// in that region — a busy loop with no stop signal, or a select{} it can
// never leave. Such a goroutine is unstoppable by construction: it survives
// every shutdown path and leaks for the life of the process, which for the
// ingestion daemons means one leaked collector loop per reconnect.
//
// The check is interprocedural: `go m.loop()` is analyzed through loop's
// summary (including loops buried further down the call chain), and a
// goroutine literal's body is analyzed directly against the same summaries.
// A region that contains any channel receive, send, or range is exempt —
// someone can signal it — as is a region that can only be reached on some
// paths but still has a channel-guarded exit.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc:  "spawned goroutine can spin or block forever with no channel to stop it",
	Run:  runGoLeak,
}

func runGoLeak(p *Pass) {
	if p.Sums == nil {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
				if _, noComm := p.Sums.BodyStuck(lit.Body); noComm {
					p.reportf(g.Pos(), "goroutine can run forever with no channel operation to stop it; add a quit channel or context")
				}
				return true
			}
			if sum := p.Sums.ForCall(g.Call); sum != nil && sum.StuckNoComm {
				p.reportf(g.Pos(), "goroutine %s can run forever with no channel operation to stop it; add a quit channel or context", types.ExprString(g.Call.Fun))
			}
			return true
		})
	}
}
