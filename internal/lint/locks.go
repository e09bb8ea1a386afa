package lint

import (
	"go/ast"
	"go/types"
)

// MutexCopy reports values of types containing a sync lock (Mutex, RWMutex,
// WaitGroup, Cond, Once, Pool, Map) being copied: by-value receivers,
// parameters and results, assignments from existing values, and by-value
// range variables. A copied lock guards nothing — the copy and the original
// lock independently, which is a data race that -race only catches if the
// schedule cooperates.
var MutexCopy = &Analyzer{
	Name: "mutexcopy",
	Doc:  "copying a struct that contains a sync.Mutex (or other sync primitive)",
	Run:  runMutexCopy,
}

func runMutexCopy(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.FuncDecl:
				checkSignature(p, node.Recv, node.Type)
			case *ast.FuncLit:
				checkSignature(p, nil, node.Type)
			case *ast.AssignStmt:
				for _, rhs := range node.Rhs {
					checkValueCopy(p, rhs)
				}
			case *ast.ValueSpec:
				for _, v := range node.Values {
					checkValueCopy(p, v)
				}
			case *ast.RangeStmt:
				if node.Value != nil && containsLock(p.typeOf(node.Value)) {
					p.reportf(node.Value.Pos(), "range value copies %s which contains a sync lock; iterate by index or pointer", p.typeOf(node.Value))
				}
			}
			return true
		})
	}
}

func checkSignature(p *Pass, recv *ast.FieldList, ft *ast.FuncType) {
	report := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := p.typeOf(field.Type)
			if t == nil {
				continue
			}
			if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
				continue
			}
			if containsLock(t) {
				p.reportf(field.Type.Pos(), "%s passes %s by value but it contains a sync lock; use a pointer", what, t)
			}
		}
	}
	report(recv, "receiver")
	report(ft.Params, "parameter")
	report(ft.Results, "result")
}

// checkValueCopy flags reads that copy an existing lock-containing value.
// Composite literals and calls construct fresh values and are fine; loading
// through an identifier, field, index, or dereference duplicates a live
// lock.
func checkValueCopy(p *Pass, rhs ast.Expr) {
	switch rhs.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
	default:
		return
	}
	t := p.typeOf(rhs)
	if t == nil {
		return
	}
	if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
		return
	}
	if containsLock(t) {
		p.reportf(rhs.Pos(), "assignment copies %s which contains a sync lock; use a pointer", t)
	}
}

// lockTypeNames are the sync primitives that must never be copied after
// first use.
var lockTypeNames = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true,
	"Cond": true, "Once": true, "Pool": true, "Map": true,
}

// containsLock reports whether t (transitively through struct fields and
// array elements, but not through pointers) embeds a sync primitive.
func containsLock(t types.Type) bool {
	return containsLockSeen(t, make(map[types.Type]bool))
}

func containsLockSeen(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && lockTypeNames[obj.Name()] {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLockSeen(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLockSeen(u.Elem(), seen)
	}
	return false
}

// mutexCall matches calls of the form recv.Lock()/Unlock()/RLock()/RUnlock()
// where recv is a sync.Mutex or sync.RWMutex (possibly behind a pointer),
// returning the rendered receiver and the operation.
func mutexCall(p *Pass, call *ast.CallExpr) (recv, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	t := p.typeOf(sel.X)
	if t == nil {
		return "", ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" || (obj.Name() != "Mutex" && obj.Name() != "RWMutex") {
		return "", ""
	}
	return types.ExprString(sel.X), sel.Sel.Name
}
