package lint

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"
)

// unusedExportAllow names the exported functions and methods under
// internal/ that no non-test code in the module calls, each with the reason
// it stays. A whole package is named by its path below internal/.
var unusedExportAllow = map[string]string{
	"faultnet":                 "test-support package: the chaos tests inject faults with it",
	"testutil":                 "test-support package: the goroutine-leak checker of the concurrent tests",
	"session.Session.Validate": "the planned ingest admission check of malformed sessions calls it",
	"world.PaperScaleConfig":   "kept until a run at the paper's density decides whether it needs it",
	"stats.ECDF.N":             "experiments' TestFig1 checks each figure CDF is non-empty",
	"events.Event.ActiveAt":    "synth's tests check tagged sessions against their event's activity",
	"heartbeat.Server.Abort":   "ingest's Node.Kill test hook crashes a node's collector with it",
	"heartbeat.Kind.String":    "fmt.Stringer",
	"online.AlertKind.String":  "fmt.Stringer",
	"whatif.Ranking.String":    "fmt.Stringer",
	"world.CDNKind.String":     "fmt.Stringer",
	"world.Region.String":      "fmt.Stringer",
	"lint.Diagnostic.String":   "fmt.Stringer",
}

// checkExportsUsed fails on every exported function or method of an
// exported type under internal/ that nothing outside _test.go files uses,
// bench/ included, unless unusedExportAllow names it, and on every
// allowlist entry that names no such function.
func checkExportsUsed(t *testing.T, pkgs []*Package) {
	used := make(map[types.Object]bool)
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}
	matched := make(map[string]bool)
	for _, p := range pkgs {
		rel, ok := strings.CutPrefix(p.Path, "repro/internal/")
		if !ok {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() || used[p.Info.Defs[fd.Name]] {
					continue
				}
				name := rel + "." + fd.Name.Name
				if fd.Recv != nil {
					recv := strings.TrimPrefix(types.ExprString(fd.Recv.List[0].Type), "*")
					if !ast.IsExported(recv) {
						continue
					}
					name = rel + "." + recv + "." + fd.Name.Name
				}
				switch {
				case unusedExportAllow[rel] != "":
					matched[rel] = true
				case unusedExportAllow[name] != "":
					matched[name] = true
				default:
					t.Errorf("%s is exported but unused outside tests: delete it, move it into a _test.go file, or allowlist it with a reason", name)
				}
			}
		}
	}
	for name := range unusedExportAllow {
		if !matched[name] {
			t.Errorf("stale allowlist entry %s: it names no unused export", name)
		}
	}
}
