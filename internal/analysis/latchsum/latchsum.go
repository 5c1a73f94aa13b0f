// Package latchsum computes whole-program latch-acquisition
// summaries: for every function, the minimum-ranked lock-hierarchy
// acquisition reachable on its synchronous call path, together with
// the call chain that reaches it.
//
// The latchorder analyzer consumes these to report inversions hidden
// arbitrarily deep behind calls ("a → b → c acquires rank 40 while
// rank 90 is held"), and blockscope shares the rank table to decide
// which held locks are spin-tier. The computation is a fixed point
// over the package call graph: per-function direct facts (ranked
// acquisitions, static call edges) iterate until no summary improves.
// Rank strictly decreases on every update and the rank domain is
// finite, so the iteration terminates — including on recursive call
// cycles, where the strict-decrease rule also prevents chains from
// growing through the cycle.
//
// Cross-package edges resolve through a Resolver: when the imported
// package's source is loaded (standalone hydra-vet, antest fixtures)
// its summaries are computed recursively and memoized; when only
// export data is available (the go vet -vettool unit protocol) they
// come from a JSON cache written by a previous standalone run (see
// Cache; make lint wires the two together).
//
// What counts as the synchronous path:
//
//   - deferred calls are included: they run at function exit on the
//     same goroutine, while any lock the *caller* holds across the
//     call is still held;
//   - immediately-invoked function literals (func(){...}()) are
//     included: their body runs inline;
//   - go statements and non-invoked function literals are excluded:
//     they run on another goroutine or at an unknowable later time,
//     carrying none of the caller's locks;
//   - interface-method and function-value calls are excluded (no
//     static callee). This is the closure's one soundness hole: an
//     acquisition behind dynamic dispatch is invisible. Rather than
//     hide it, every summary counts such skipped sites (DynCalls), so
//     drivers can surface exactly where the analysis is blind
//     (hydra-vet -json emits the census; DESIGN.md §6 documents it).
package latchsum

import (
	"go/ast"
	"go/types"
	"path"

	"hydra/internal/analysis"
	"hydra/internal/analysis/lockflow"
	"hydra/internal/invariant"
)

// Hierarchy maps lock declaration sites ("pkg.Type.field", as
// rendered by lockflow.LockSite) to ranks. A lock may only be
// acquired while every ranked lock already held has rank <= its own.
// Lower rank = outer tier = acquired first. Gaps leave room for new
// tiers.
//
// The ranks come from internal/invariant's tier constants, which the
// hydradebug runtime assertions enforce on live executions — one
// source of truth for both layers. DESIGN.md renders the table; keep
// the prose in sync.
var Hierarchy = map[string]int{
	// Tier 0: whole-engine serialization.
	"core.Engine.ckptMu": invariant.TierEngineCkpt,
	"core.Engine.mu":     invariant.TierEngineMu,

	// Tier 1: per-transaction and per-structure locks.
	"core.Txn.mu":             invariant.TierTxnMu,
	"core.verTable.publishMu": invariant.TierMVCCPublish,
	"core.verTable.snapMu":    invariant.TierMVCCSnap,
	"btree.Tree.mu":           invariant.TierTree,

	// Tier 2: lock-manager partitions (2PL state).
	"lock.partition.mu": invariant.TierLockPart,

	// Tier 3: page latches (crabbing orders same-rank acquisitions).
	"buffer.Frame.Latch": invariant.TierFrameLatch,
	// MVCC chain shards sit between the page latches and the buffer
	// bookkeeping tiers: version install runs inside a page X-latch
	// window, and nothing is acquired under a shard.
	"core.verShard.mu": invariant.TierMVCCShard,

	// Tier 4: short bookkeeping mutexes — leaves of the hierarchy;
	// nothing may be acquired under them (and lockscope/blockscope
	// separately forbid blocking there).
	"buffer.shard.mu":     invariant.TierPoolShard,
	"buffer.FileStore.mu": invariant.TierFileStore,
	"wal.Log.mu":          invariant.TierWALLog,
	"wal.Log.waitMu":      invariant.TierWALWait,
	"wal.FileDevice.mu":   invariant.TierWALDevice,
	"sync2.Queue.mu":      invariant.TierDoraQueue,
}

// FuncSummary is one function's transitive latch footprint: the
// lowest-ranked hierarchy acquisition reachable on its synchronous
// path. One entry is enough — any held rank above it makes a call an
// inversion, and the report names the worst offender.
type FuncSummary struct {
	// Site is the declaration site of the acquisition
	// (e.g. "lock.partition.mu").
	Site string `json:"site"`
	// Rank is Hierarchy[Site].
	Rank int `json:"rank"`
	// Chain names the call path below the summarized function that
	// reaches the acquisition, outermost callee first; empty when the
	// function acquires Site directly.
	Chain []string `json:"chain,omitempty"`
	// DynCalls counts the dynamic-dispatch call sites (interface
	// methods, function values) on the function's own synchronous path.
	// Each is a hole in the closure: whatever the runtime target
	// acquires is invisible here, so a non-zero count marks the summary
	// (and every summary reached through this function) as a lower
	// bound, not a proof. The count is per-function, not transitive.
	//
	// A function with dynamic sites but no reachable ranked acquisition
	// still gets an entry, with Site == "" and Rank 0; consumers that
	// rank calls must treat such entries as "no acquisition known"
	// (PkgSummaries.Callee filters them).
	DynCalls int `json:"dyn_calls,omitempty"`
}

// DepResolver resolves the summaries of an imported package, keyed by
// types.Func.FullName. A nil map means "no summaries known" (not an
// error: standard-library and unanalyzable packages).
type DepResolver func(importPath string) map[string]FuncSummary

// Summaries computes the fixed-point summary map for every function
// declared in pkg. deps resolves cross-package call edges; nil
// confines the closure to the package.
func Summaries(pkg *analysis.Package, deps DepResolver) map[*types.Func]FuncSummary {
	type facts struct {
		fn    *types.Func
		min   *FuncSummary
		calls []*types.Func
		dyn   int
	}
	var fns []*facts
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fa := &facts{fn: fn}
			WalkSync(fd.Body, func(c *ast.CallExpr) {
				act, _, class := lockflow.ClassifyLockCall(pkg.Info, c)
				if act == lockflow.Acquire && class != lockflow.ClassNone {
					site := lockflow.LockSite(pkg.Info, c)
					if rank, ranked := Hierarchy[site]; ranked {
						if fa.min == nil || rank < fa.min.Rank {
							fa.min = &FuncSummary{Site: site, Rank: rank}
						}
					}
					return
				}
				if callee := CalleeOf(pkg.Info, c); callee != nil && !ifaceMethod(callee) {
					fa.calls = append(fa.calls, callee)
				} else if DynCall(pkg.Info, c) {
					fa.dyn++
				}
			})
			fns = append(fns, fa)
		}
	}

	// Seed with direct acquisitions, then iterate call edges to a
	// fixed point. Iteration follows declaration order, and an entry
	// only improves on a strictly lower rank, so the result (and the
	// witness chains) is deterministic for a given source tree.
	cur := make(map[*types.Func]FuncSummary)
	for _, fa := range fns {
		if fa.min != nil {
			cur[fa.fn] = *fa.min
		}
	}
	// depMemo pins each imported package's summaries for the whole
	// iteration; resolving once also keeps cost linear.
	depMemo := make(map[string]map[string]FuncSummary)
	resolveDep := func(p string) map[string]FuncSummary {
		if deps == nil {
			return nil
		}
		m, ok := depMemo[p]
		if !ok {
			m = deps(p)
			depMemo[p] = m
		}
		return m
	}
	for changed := true; changed; {
		changed = false
		for _, fa := range fns {
			for _, callee := range fa.calls {
				var s FuncSummary
				var ok bool
				if callee.Pkg() == pkg.Types {
					// Defs and Uses resolve a declared function to the
					// same object, so the summary map keys directly.
					s, ok = cur[callee]
				} else if callee.Pkg() != nil {
					m := resolveDep(callee.Pkg().Path())
					if m != nil {
						s, ok = m[callee.FullName()]
					}
				}
				// Dyn-only entries (Site == "") carry no acquisition to
				// propagate — a cached dependency may publish them.
				if !ok || s.Site == "" {
					continue
				}
				have, got := cur[fa.fn]
				if !got || s.Rank < have.Rank {
					chain := make([]string, 0, len(s.Chain)+1)
					chain = append(chain, ShortName(callee))
					chain = append(chain, s.Chain...)
					cur[fa.fn] = FuncSummary{Site: s.Site, Rank: s.Rank, Chain: chain}
					changed = true
				}
			}
		}
	}
	// Fold in the dynamic-dispatch census after the rank fixed point
	// settles: counts never influence rank propagation, and a function
	// whose only call sites are dynamic still gets a (dyn-only) entry
	// so the blind spot survives into the cache and driver output.
	for _, fa := range fns {
		if fa.dyn == 0 {
			continue
		}
		s := cur[fa.fn]
		s.DynCalls = fa.dyn
		cur[fa.fn] = s
	}
	return cur
}

// WalkSync visits every call expression on body's synchronous path:
// deferred calls included, go statements and non-invoked function
// literals excluded, immediately-invoked literal bodies walked
// inline.
func WalkSync(n ast.Node, visit func(*ast.CallExpr)) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.GoStmt:
			// Arguments evaluate on this goroutine; the call does not.
			for _, a := range m.Call.Args {
				WalkSync(a, visit)
			}
			return false
		case *ast.FuncLit:
			// Reached only when the literal is not the callee of an
			// immediate invocation (that case is intercepted below).
			return false
		case *ast.CallExpr:
			if lit, ok := m.Fun.(*ast.FuncLit); ok {
				for _, a := range m.Args {
					WalkSync(a, visit)
				}
				WalkSync(lit.Body, visit)
				return false
			}
			visit(m)
			return true
		}
		return true
	})
}

// CalleeOf resolves a call to the *types.Func it statically invokes,
// or nil for function values, builtins and type conversions.
// Interface-method calls resolve to the interface's *types.Func; they
// match no summary (summaries key concrete declarations) and so are
// effectively skipped — DynCall classifies them so Summaries can count
// the skip instead of losing it silently.
func CalleeOf(info *types.Info, c *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(c.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// ifaceMethod reports whether fn is declared on an interface — a call
// to it dispatches dynamically, so no concrete summary can match.
func ifaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
}

// DynCall reports whether c is a dynamic-dispatch call site — an
// interface-method invocation or a call through a function value —
// whose target the closure cannot resolve. Builtins, type conversions
// and immediately-invoked literals (inlined by WalkSync) are not
// dynamic: their effect is fully visible.
func DynCall(info *types.Info, c *ast.CallExpr) bool {
	if fn := CalleeOf(info, c); fn != nil {
		return ifaceMethod(fn)
	}
	tv, ok := info.Types[ast.Unparen(c.Fun)]
	if !ok || tv.IsType() || tv.IsBuiltin() {
		return false
	}
	_, isFunc := tv.Type.Underlying().(*types.Signature)
	return isFunc
}

// ShortName renders fn the way diagnostics spell functions:
// "core.register" for package functions, "(*core.Txn).finish" for
// methods — the package qualified by base name only, matching
// lockflow.LockSite's site rendering.
func ShortName(fn *types.Func) string {
	pkgBase := ""
	if fn.Pkg() != nil {
		pkgBase = path.Base(fn.Pkg().Path())
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		if pkgBase == "" {
			return fn.Name()
		}
		return pkgBase + "." + fn.Name()
	}
	t := sig.Recv().Type()
	star := ""
	if p, isPtr := t.(*types.Pointer); isPtr {
		star = "*"
		t = p.Elem()
	}
	recv := "?"
	if named, isNamed := t.(*types.Named); isNamed {
		recv = named.Obj().Name()
		if named.Obj().Pkg() != nil {
			recv = path.Base(named.Obj().Pkg().Path()) + "." + recv
		}
	} else if iface, isIface := t.(*types.Interface); isIface {
		_ = iface
		recv = pkgBase + ".interface"
	}
	return "(" + star + recv + ")." + fn.Name()
}

// ChainString renders a diagnostic chain "a → b → c".
func ChainString(chain []string) string {
	out := ""
	for i, c := range chain {
		if i > 0 {
			out += " → "
		}
		out += c
	}
	return out
}
