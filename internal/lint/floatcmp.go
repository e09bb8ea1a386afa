package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatCmp reports direct ==/!= comparisons between floating-point
// expressions. The analysis pipeline classifies sessions against thresholds
// (5% buffering ratio, 700 kbps, 1.5× the global problem ratio) that are
// derived arithmetically, so exact equality silently misclassifies values
// one ulp off the boundary; comparisons must go through the eps helpers
// (repro/internal/core/eps). Two exemptions: comparisons where both
// operands are compile-time constants (exact by construction), and
// comparisons inside a comparator literal passed to sort/slices (an epsilon
// tie-break there violates strict weak ordering and corrupts the sort).
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Doc:  "direct ==/!= on floating-point expressions (use internal/core/eps)",
	Run:  runFloatCmp,
}

func runFloatCmp(p *Pass) {
	for _, f := range p.Files {
		comparators := comparatorRanges(p, f)
		ast.Inspect(f, func(n ast.Node) bool {
			cmp, ok := n.(*ast.BinaryExpr)
			if !ok || (cmp.Op != token.EQL && cmp.Op != token.NEQ) {
				return true
			}
			if !isFloat(p.typeOf(cmp.X)) && !isFloat(p.typeOf(cmp.Y)) {
				return true
			}
			if isConstExpr(p, cmp.X) && isConstExpr(p, cmp.Y) {
				return true
			}
			for _, r := range comparators {
				if cmp.Pos() >= r[0] && cmp.Pos() < r[1] {
					return true
				}
			}
			p.reportf(cmp.OpPos, "float comparison with %s; use eps.Eq or an explicit tolerance", cmp.Op)
			return true
		})
	}
}

// comparatorRanges returns the source ranges of function literals passed as
// arguments to sort/slices ordering functions.
func comparatorRanges(p *Pass, f *ast.File) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, name := calleePkgFunc(p, call)
		if (pkg != "sort" && pkg != "slices") || !sortFuncNames[name] {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				out = append(out, [2]token.Pos{lit.Pos(), lit.End()})
			}
		}
		return true
	})
	return out
}

// isFloat reports whether t's underlying type is a floating-point type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isConstExpr reports whether e evaluated to a compile-time constant.
func isConstExpr(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}
