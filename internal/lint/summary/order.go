package summary

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/callgraph"
)

// SortFuncNames are the sort/slices package functions that establish an
// order on their first argument. The canonical set lives here because both
// the kSort effect computation and the detorder analyzer key on it.
var SortFuncNames = map[string]bool{
	"Sort": true, "SortFunc": true, "SortStableFunc": true,
	"Slice": true, "SliceStable": true, "Stable": true,
	"Strings": true, "Ints": true, "Float64s": true,
}

// sortTarget matches sort.X(arg, ...) / slices.X(arg, ...) ordering calls
// whose first argument resolves to a param-derived ref — the site that sets
// the kSort effect. A single-argument conversion around the slice
// (sort.Sort(byLen(keys))) is looked through.
func (fc *funcCtx) sortTarget(call *ast.CallExpr) (Ref, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return Ref{}, false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return Ref{}, false
	}
	pn, ok := fc.info.Uses[id].(*types.PkgName)
	if !ok {
		return Ref{}, false
	}
	if p := pn.Imported().Path(); p != "sort" && p != "slices" {
		return Ref{}, false
	}
	if !SortFuncNames[sel.Sel.Name] {
		return Ref{}, false
	}
	arg := unparen(call.Args[0])
	if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 {
		if tv, isConv := fc.info.Types[conv.Fun]; isConv && tv.IsType() {
			arg = conv.Args[0]
		}
	}
	return fc.refOf(arg)
}

// printFamily is the fmt output functions that emit in call order.
var printFamily = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// IsEmissionCall reports whether call emits order-sensitive output: the fmt
// print family, or a Write*/AddRow/AddPoint method call (io writers, hash
// and digest updates, the repo's report builders). Shared with detorder.
func IsEmissionCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := info.Uses[id].(*types.PkgName); ok {
			return pn.Imported().Path() == "fmt" && printFamily[sel.Sel.Name]
		}
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "AddRow", "AddPoint":
		// Methods only — a package-level function of the same name is not an
		// output sink.
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			return true
		}
	}
	return false
}

// computeOrderFacts fills OrderSensitive: the function emits order-sensitive
// output of its own, accumulates floats into state that outlives the call,
// or synchronously calls an in-package function that does. Sites inside
// stored literals do not count (the caller's loop does not run them), and
// spawned callees emit asynchronously — their output order is not the
// caller's call order.
func (set *Set) computeOrderFacts(fc *funcCtx, sum *Summary) {
	walkBodyStmts(fc.node.Decl.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if IsEmissionCall(fc.info, n) {
				sum.OrderSensitive = true
			}
		case *ast.AssignStmt:
			if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) &&
				len(n.Lhs) == 1 && isFloatType(fc.info.TypeOf(n.Lhs[0])) &&
				fc.persistentRoot(n.Lhs[0]) {
				sum.OrderSensitive = true
			}
		}
	})
	if sum.OrderSensitive {
		return
	}
	for _, site := range fc.node.Sites {
		if site.InLiteral || site.Mode == callgraph.Go {
			continue
		}
		if cs, _ := fc.calleeSummary(site.Callee); cs != nil && cs.OrderSensitive {
			sum.OrderSensitive = true
			return
		}
	}
}

func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// persistentRoot reports whether the lvalue's base names state that outlives
// the call: a parameter or receiver, a package-level variable (this package
// or, via a qualified selector, another one). Accumulating into a plain
// local stays invisible to callers — the local's order sensitivity is the
// function's own business.
func (fc *funcCtx) persistentRoot(e ast.Expr) bool {
	for {
		switch x := unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			if _, isPkg := fc.info.Uses[x].(*types.PkgName); isPkg {
				return true
			}
			v, ok := fc.info.Uses[x].(*types.Var)
			if !ok {
				return false
			}
			if _, isParam := fc.params[v]; isParam {
				return true
			}
			return v.Parent() != nil && v.Parent().Parent() == types.Universe
		default:
			return false
		}
	}
}
