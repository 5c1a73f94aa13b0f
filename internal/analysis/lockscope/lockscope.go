// Package lockscope implements the hydra-vet analyzer forbidding
// blocking operations inside shard/stripe critical sections.
//
// Hydra's scalability story depends on its short critical sections
// staying short: a sync.Mutex (or sync2 spin lock) guarding a buffer
// shard, lock-table partition or WAL accounting structure must never
// be held across store IO, a channel operation, a lock-manager
// Acquire, or a WAL durability wait. Holding a shard mutex across a
// page write-back, for example, stalls every fetcher hashing to that
// shard for the duration of a disk write — the exact pathology this
// analyzer exists to catch (and did catch: see the dirty-victim
// write-back finding in DESIGN.md).
//
// The analysis is intra-package and interprocedural one package at a
// time: a function "may block" if it directly performs a blocking
// operation or calls a same-package function that does; calls into
// other packages are matched against a table of known-blocking
// methods (PageStore IO, os.File IO, lock.Manager/Holder Acquire,
// wal.Log waits, time.Sleep, WaitGroup.Wait). sync.Cond.Wait is
// special-cased: it releases its own mutex, so it only counts when
// more than one lock is held at the wait (direct case), and it never
// propagates into caller summaries (the condvar's mutex is almost
// always the one the caller holds).
//
// Page latches (internal/latch) are deliberately not guard locks
// here: frames are legitimately latched across write-back IO.
//
// Two declaration-site directives tune the analysis, both requiring a
// "-- justification" suffix:
//
//   - //hydra:vet:coarse on a lock field declares the lock
//     intentionally coarse — it exists to serialize a whole rare
//     operation (DDL, a checkpoint, the Coarse index mode) and IO
//     under it is the design, not an accident. Such locks are not
//     guards for this analyzer.
//   - //hydra:vet:nonpropagating on a function excludes it from
//     may-block summaries: it releases the caller's lock before
//     blocking, returns holding one for its caller, or its channel
//     operations are guaranteed non-blocking (capacity-1 single-send).
package lockscope

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"

	"hydra/internal/analysis"
	"hydra/internal/analysis/lockflow"
)

// Analyzer is the lockscope analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockscope",
	Doc:  "no blocking operation (store IO, channel op, lock-manager Acquire, WAL wait) while a shard/stripe mutex or sync2 lock is held",
	Run:  run,
}

// blockKind distinguishes how an operation blocks, for the Cond.Wait
// exception.
type blockKind int

const (
	blockNone blockKind = iota
	blockOp             // unconditionally blocking
	blockCondWait
)

// blockingMethods maps (defining package base name) -> method names
// that block. Matching by defining package keeps the table robust to
// how the receiver is spelled (interface, embedding, pointer).
var blockingMethods = map[string]map[string]bool{
	"buffer": {
		"ReadPage": true, "WritePage": true, "Allocate": true,
		"NumPages": true, "Sync": true, "Close": true,
		"Fetch": true, "NewPage": true, "FlushAll": true, "FlushPage": true,
	},
	"os": {
		"Read": true, "Write": true, "ReadAt": true, "WriteAt": true,
		"Sync": true, "Seek": true,
	},
	"lock": {"Acquire": true},
	"wal": {
		"WaitFlushed": true, "Flush": true, "Insert": true,
		"Append": true, "AppendFields": true, "Close": true,
	},
}

// blockingPkgFuncs maps package base name -> package-level functions
// that block.
var blockingPkgFuncs = map[string]map[string]bool{
	"time": {"Sleep": true},
}

const (
	coarseMarker  = "//hydra:vet:coarse"
	nonpropMarker = "//hydra:vet:nonpropagating"
)

func run(pass *analysis.Pass) error {
	funcs := packageFuncs(pass)
	coarse := coarseLockFields(pass)
	nonprop := nonpropagatingFuncs(pass)

	// Phase 1: per-function direct facts — the first blocking
	// operation (if any) and the same-package call edges.
	direct := make(map[*types.Func]string) // fn -> reason
	calls := make(map[*types.Func][]*types.Func)
	for fn, decl := range funcs {
		skip := lockflow.SelectCommNodes(decl.Body)
		lockflow.WalkFunc(decl.Body, lockflow.Hooks{
			Visit: func(n ast.Node, _ map[string]lockflow.Hold) {
				if _, ok := direct[fn]; !ok {
					if desc, kind := blockingNode(pass.TypesInfo, n, skip); kind == blockOp {
						direct[fn] = desc
					}
				}
				if c, ok := n.(*ast.CallExpr); ok {
					if callee := staticCallee(pass, c); callee != nil {
						calls[fn] = append(calls[fn], callee)
					}
				}
			},
		})
	}

	// Phase 2: propagate to a fixed point. mayBlock carries the call
	// chain for the diagnostic. Nonpropagating functions never enter
	// the map: their blocking happens with the caller's lock released
	// (or provably cannot block).
	mayBlock := make(map[*types.Func]string)
	for fn, reason := range direct {
		if !nonprop[fn] {
			mayBlock[fn] = reason
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			if _, done := mayBlock[fn]; done || nonprop[fn] {
				continue
			}
			for _, callee := range callees {
				if reason, ok := mayBlock[callee]; ok {
					mayBlock[fn] = callee.Name() + " → " + reason
					changed = true
					break
				}
			}
		}
	}

	// Phase 3: re-walk with guard-lock tracking and report blocking
	// operations (direct or via a may-block same-package call) inside
	// critical sections.
	for _, decl := range funcs {
		skip := lockflow.SelectCommNodes(decl.Body)
		reported := make(map[token.Pos]bool)
		lockflow.WalkFunc(decl.Body, lockflow.Hooks{
			Classify: func(c *ast.CallExpr, deferred bool) (lockflow.Action, string) {
				act, key := lockflow.ClassifyLockCall(pass.TypesInfo, c)
				if act == lockflow.None {
					return lockflow.None, ""
				}
				if obj := lockFieldObj(pass.TypesInfo, c); obj != nil && coarse[obj] {
					return lockflow.None, "" // declared coarse: not a guard
				}
				if deferred && act == lockflow.Release {
					return lockflow.None, "" // held to function end
				}
				return act, key
			},
			Visit: func(n ast.Node, held map[string]lockflow.Hold) {
				if len(held) == 0 || reported[n.Pos()] {
					return
				}
				if desc, kind := blockingNode(pass.TypesInfo, n, skip); kind != blockNone {
					if kind == blockCondWait && len(held) <= 1 {
						return // condvar releases its own (sole held) mutex
					}
					reported[n.Pos()] = true
					pass.Reportf(n.Pos(), "%s while holding %s", desc, heldList(held))
					return
				}
				c, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				// A lock's own Lock() blocks on contention, but
				// nesting is the runtime layer's concern (latch order,
				// internal/invariant), not lockscope's.
				if act, _ := lockflow.ClassifyLockCall(pass.TypesInfo, c); act != lockflow.None {
					return
				}
				if callee := staticCallee(pass, c); callee != nil {
					if reason, mb := mayBlock[callee]; mb {
						reported[n.Pos()] = true
						pass.Reportf(n.Pos(), "call to %s may block (%s) while holding %s",
							callee.Name(), reason, heldList(held))
					}
				}
			},
		})
	}
	return nil
}

// coarseLockFields collects struct fields marked //hydra:vet:coarse.
// A marker without a "-- justification" suffix is itself reported.
func coarseLockFields(pass *analysis.Pass) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !markerOn(pass, coarseMarker, field.Doc, field.Comment) {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						out[obj] = true
					}
				}
			}
			return true
		})
	}
	return out
}

// nonpropagatingFuncs collects functions marked
// //hydra:vet:nonpropagating.
func nonpropagatingFuncs(pass *analysis.Pass) map[*types.Func]bool {
	out := make(map[*types.Func]bool)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !markerOn(pass, nonpropMarker, fd.Doc) {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				out[fn] = true
			}
		}
	}
	return out
}

// markerOn reports whether either comment group carries the marker
// with a justification, reporting malformed markers.
func markerOn(pass *analysis.Pass, marker string, groups ...*ast.CommentGroup) bool {
	found := false
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, marker) {
				continue
			}
			_, justification, ok := strings.Cut(c.Text, "--")
			if !ok || strings.TrimSpace(justification) == "" {
				pass.Reportf(c.Pos(), "%s marker missing justification: want %s -- <reason>", marker, marker)
				continue
			}
			found = true
		}
	}
	return found
}

// lockFieldObj resolves the lock operated on by a Lock/Unlock-style
// call to its declaring struct field, when it is one.
func lockFieldObj(info *types.Info, c *ast.CallExpr) types.Object {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fe, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s := info.Selections[fe]; s != nil && s.Kind() == types.FieldVal {
		return s.Obj()
	}
	return nil
}

// packageFuncs indexes the package's function declarations by their
// types object.
func packageFuncs(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				out[fn] = fd
			}
		}
	}
	return out
}

// staticCallee resolves a call to a function or method defined in the
// package under analysis.
func staticCallee(pass *analysis.Pass, c *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := c.Fun.(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		if selection := pass.TypesInfo.Selections[fun]; selection != nil {
			obj = selection.Obj()
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() != pass.Pkg {
		return nil
	}
	return fn
}

// blockingNode classifies an AST node as a blocking operation.
func blockingNode(info *types.Info, n ast.Node, skip map[ast.Node]bool) (string, blockKind) {
	if skip[n] {
		return "", blockNone
	}
	switch n := n.(type) {
	case *ast.SendStmt:
		return "channel send", blockOp
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "channel receive", blockOp
		}
	case *ast.RangeStmt:
		if t := info.TypeOf(n.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return "range over channel", blockOp
			}
		}
	case *ast.SelectStmt:
		for _, cc := range n.Body.List {
			if comm, ok := cc.(*ast.CommClause); ok && comm.Comm == nil {
				return "", blockNone // has default: non-blocking
			}
		}
		return "blocking select", blockOp
	case *ast.CallExpr:
		return blockingCall(info, n)
	}
	return "", blockNone
}

// blockingCall matches a call against the known-blocking tables.
func blockingCall(info *types.Info, c *ast.CallExpr) (string, blockKind) {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", blockNone
	}
	if selection := info.Selections[sel]; selection != nil {
		fn, ok := selection.Obj().(*types.Func)
		if !ok || fn.Pkg() == nil {
			return "", blockNone
		}
		pkg := path.Base(fn.Pkg().Path())
		name := fn.Name()
		if pkg == "sync" {
			recv := lockflow.NamedRecvName(selection.Recv())
			if name == "Wait" && recv == "WaitGroup" {
				return "(sync.WaitGroup).Wait", blockOp
			}
			if name == "Wait" && recv == "Cond" {
				return "(sync.Cond).Wait", blockCondWait
			}
			return "", blockNone
		}
		// PageStore-shaped interfaces in fixture packages match by
		// interface name so testdata needn't import hydra internals.
		if m, ok := blockingMethods[pkg]; ok && m[name] {
			return "(" + pkg + ")." + name, blockOp
		}
		if lockflow.NamedRecvName(selection.Recv()) == "PageStore" && blockingMethods["buffer"][name] {
			return "(PageStore)." + name, blockOp
		}
		return "", blockNone
	}
	// Package-qualified function call (e.g. time.Sleep).
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", blockNone
	}
	pn, ok := info.Uses[x].(*types.PkgName)
	if !ok {
		return "", blockNone
	}
	pkg := path.Base(pn.Imported().Path())
	if m, ok := blockingPkgFuncs[pkg]; ok && m[sel.Sel.Name] {
		return pkg + "." + sel.Sel.Name, blockOp
	}
	return "", blockNone
}

// heldList renders the held locks in acquisition order.
func heldList(held map[string]lockflow.Hold) string {
	type kv struct {
		k string
		o int
	}
	var list []kv
	for k, h := range held {
		list = append(list, kv{k, h.Order})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].o < list[j].o })
	var names []string
	for _, e := range list {
		names = append(names, e.k)
	}
	return strings.Join(names, ", ")
}
