package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ErrDrop reports call statements that silently discard an error result.
// The measurement path must never lose a failure signal: a dropped Close or
// SetDeadline error hides exactly the transport problems the collector
// exists to count. Explicit discards (`_ = f()`), deferred cleanup calls,
// and conventionally error-free sinks (strings.Builder, bytes.Buffer, the
// fmt print family writing to the terminal) are exempt. Test files are not
// analyzed at all.
//
// One deferred call is NOT exempt: `defer f.Sync()` on an *os.File. Unlike
// Close-on-cleanup, Sync exists solely to report whether data reached
// stable storage — deferring it throws the durability verdict away, which
// is how a crash-safe writer silently stops being crash-safe. Sync
// explicitly (checking the error) or drop it.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "call statement discards an error result",
	Run:  runErrDrop,
}

func runErrDrop(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				c, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				call = c
			case *ast.DeferStmt:
				// Deferred cleanup is exempt in general, but a deferred
				// file Sync discards the one error that says whether the
				// data is durable.
				if !isFileSync(p, stmt.Call) {
					return true
				}
				call = stmt.Call
			default:
				return true
			}
			if !returnsError(p, call) || errExempt(p, call) {
				return true
			}
			p.reportf(call.Pos(), "result of %s contains a discarded error; handle it or assign to _ explicitly", types.ExprString(call.Fun))
			return true
		})
	}
}

// isFileSync reports whether call is a Sync method call on an *os.File (or
// os.File) receiver.
func isFileSync(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sync" {
		return false
	}
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	recv := s.Recv()
	if ptr, ok := recv.Underlying().(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "os" && named.Obj().Name() == "File"
}

// returnsError reports whether the call's result is, or ends with, an error.
func returnsError(p *Pass, call *ast.CallExpr) bool {
	t := p.typeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(tup.Len() - 1).Type()
	}
	return isErrorType(t)
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// errExempt lists the conventionally error-free calls the rule ignores.
func errExempt(p *Pass, call *ast.CallExpr) bool {
	pkg, name := calleePkgFunc(p, call)
	if pkg == "fmt" {
		switch name {
		case "Print", "Printf", "Println":
			return true
		case "Fprint", "Fprintf", "Fprintln":
			// Terminal chatter and in-memory sinks are exempt; a real
			// writer is not.
			return len(call.Args) > 0 && (isStdStream(p, call.Args[0]) || isErrFreeWriter(p, call.Args[0]))
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	recv := s.Recv()
	if ptr, ok := recv.Underlying().(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "strings.Builder", "bytes.Buffer":
		// Their Write methods are documented to always return a nil error.
		return true
	}
	return false
}

// isErrFreeWriter reports whether e is a strings.Builder or bytes.Buffer
// (possibly behind & or a pointer type), whose writes never fail.
func isErrFreeWriter(p *Pass, e ast.Expr) bool {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	t := p.typeOf(e)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

// isStdStream reports whether e is os.Stdout or os.Stderr.
func isStdStream(p *Pass, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Stdout" && sel.Sel.Name != "Stderr") {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.Info.ObjectOf(id).(*types.PkgName)
	return ok && pn.Imported().Path() == "os"
}
