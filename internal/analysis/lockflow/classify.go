package lockflow

import (
	"go/ast"
	"go/types"
	"path"
)

// ClassifyLockCall reports whether call acquires or releases a guard
// lock, with the lock's key: the rendered receiver expression (the
// lock's identity within one function).
//
// Recognition is by the defining package of the called method — base
// name "sync" (Mutex/RWMutex, including promoted embeddings),
// "invariant" (the ranked Mutex[T]/RWMutex[T], whose clocked acquires
// LockC/RLockC acquire too) or "sync2" — so analyzer fixtures can model
// them with small local packages of the same name.
// Page latches (internal/latch) are not guard locks: frames are
// legitimately latched across IO.
func ClassifyLockCall(info *types.Info, call *ast.CallExpr) (Action, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return None, ""
	}
	selection := info.Selections[sel]
	if selection == nil {
		return None, ""
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil {
		return None, ""
	}
	switch path.Base(fn.Pkg().Path()) {
	case "sync", "invariant", "sync2":
		switch fn.Name() {
		case "Lock", "RLock", "LockC", "RLockC":
			return Acquire, types.ExprString(sel.X)
		case "Unlock", "RUnlock":
			return Release, types.ExprString(sel.X)
		}
	}
	return None, ""
}
