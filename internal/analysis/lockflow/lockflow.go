// Package lockflow is the held-lock dataflow walk under the lockscope
// analyzer. It walks a function body in approximate execution order,
// maintaining the set of "held" resources through branches:
//
//   - if/else: a branch that terminates (return, break, continue,
//     panic) drops out of the merge; otherwise the post-branch held
//     set is the intersection of the arms, which can under-report but
//     never invents a hold that might not exist (no false positives
//     from merging).
//   - for/range: the body is walked with the entry set; effects on the
//     held set are discarded at loop exit (the body may run zero
//     times).
//   - switch/select: like if over the cases; a missing default keeps
//     the entry set in the merge.
//   - defer of a release keeps the resource held to function end (a
//     deferred unlock still pins the lock across everything after
//     it); hooks see the deferral and may instead treat it as an
//     immediate release.
//   - function literals execute later, possibly on another goroutine:
//     they are walked separately with an empty held set — EXCEPT an
//     immediately-invoked literal (func(){...}()), whose body runs
//     inline and is walked with the current held set, its effects
//     merged back across its exit paths.
//
// This is a syntactic approximation, not a CFG — goto and loop-carried
// holds are out of scope — but Hydra's lock usage is block-structured,
// and the analyzers' testdata fixtures pin down exactly what the
// engine does and does not see.
package lockflow

import (
	"go/ast"
	"go/token"
)

// Action classifies a call's effect on the tracked held set.
type Action int

const (
	// None leaves the held set unchanged.
	None Action = iota
	// Acquire adds the key to the held set.
	Acquire
	// Release removes the key from the held set.
	Release
)

// Hold records one live acquisition.
type Hold struct {
	// Order is the acquisition sequence number within the function,
	// so hooks can recover nesting order from a held map.
	Order int
}

// Hooks parameterizes a walk.
type Hooks struct {
	// Classify inspects a call and reports its effect on the held set
	// plus the resource key (e.g. the rendered receiver expression).
	// deferred is true when the call is the operand of a defer
	// statement; returning None for a deferred Release keeps the
	// resource held for the remainder of the function.
	Classify func(call *ast.CallExpr, deferred bool) (Action, string)
	// Visit observes every node in execution order together with the
	// currently-held set. For an Acquire call, Visit runs before the
	// acquisition takes effect, so the held set reflects what was held
	// at the moment of acquisition.
	Visit func(n ast.Node, held map[string]Hold)
	// FuncEnd, if set, observes the held set at every exit point: each
	// return statement and the fall-off end of the body (nil stmt), of
	// the function and of each separately-walked literal. Terminating
	// branches inside loops are not exits.
	FuncEnd func(ret *ast.ReturnStmt, held map[string]Hold)
}

// WalkFunc walks body with h. Nested function literals are walked
// afterwards, each with a fresh held set.
func WalkFunc(body *ast.BlockStmt, h Hooks) {
	if body == nil {
		return
	}
	w := &walker{hooks: h, held: map[string]Hold{}}
	terminated := w.stmts(body.List)
	if !terminated && h.FuncEnd != nil {
		h.FuncEnd(nil, w.held)
	}
	// Deferred function literals run at function exit on the same
	// goroutine; plain literals and go-statement bodies run who knows
	// when. Either way, no lock held at their definition site is
	// guaranteed (or required) to be held when they execute, so each
	// starts empty.
	for i := 0; i < len(w.lits); i++ {
		w2 := &walker{hooks: h, held: map[string]Hold{}}
		if !w2.stmts(w.lits[i].Body.List) && h.FuncEnd != nil {
			h.FuncEnd(nil, w2.held)
		}
		w.lits = append(w.lits, w2.lits...)
	}
}

type walker struct {
	hooks Hooks
	held  map[string]Hold
	seq   int
	lits  []*ast.FuncLit
}

func cloneHeld(m map[string]Hold) map[string]Hold {
	out := make(map[string]Hold, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func intersectHeld(a, b map[string]Hold) map[string]Hold {
	out := make(map[string]Hold)
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}

// stmts walks a statement list, returning whether control definitely
// leaves it (return/branch/panic).
func (w *walker) stmts(list []ast.Stmt) bool {
	for _, s := range list {
		if w.stmt(s) {
			return true
		}
	}
	return false
}

func (w *walker) stmt(s ast.Stmt) (terminated bool) {
	if s == nil {
		return false
	}
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, false)
		return isPanicCall(s.X)
	case *ast.SendStmt:
		w.visit(s)
		w.expr(s.Chan, false)
		w.expr(s.Value, false)
	case *ast.IncDecStmt:
		w.expr(s.X, false)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, false)
		}
		for _, e := range s.Lhs {
			w.expr(e, false)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e, false)
					}
				}
			}
		}
	case *ast.DeferStmt:
		w.expr(s.Call, true)
	case *ast.GoStmt:
		// Arguments evaluate now; the call itself runs elsewhere.
		for _, a := range s.Call.Args {
			w.expr(a, false)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.lits = append(w.lits, lit)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, false)
		}
		w.visit(s)
		if w.hooks.FuncEnd != nil {
			w.hooks.FuncEnd(s, w.held)
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto end this path as far as the linear walk
		// is concerned.
		w.visit(s)
		return true
	case *ast.BlockStmt:
		return w.stmts(s.List)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond, false)
		entry := cloneHeld(w.held)
		thenTerm := w.stmts(s.Body.List)
		thenHeld := w.held
		w.held = cloneHeld(entry)
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.stmt(s.Else)
		}
		elseHeld := w.held
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			w.held = elseHeld
		case elseTerm:
			w.held = thenHeld
		default:
			w.held = intersectHeld(thenHeld, elseHeld)
		}
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond, false)
		entry := cloneHeld(w.held)
		w.stmts(s.Body.List)
		w.stmt(s.Post)
		w.held = entry
	case *ast.RangeStmt:
		w.visit(s) // ranging over a channel is a blocking receive
		w.expr(s.X, false)
		entry := cloneHeld(w.held)
		w.stmts(s.Body.List)
		w.held = entry
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag, false)
		return w.caseBodies(s.Body, true)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		return w.caseBodies(s.Body, true)
	case *ast.SelectStmt:
		w.visit(s) // the select itself may block (no default)
		return w.caseBodies(s.Body, false)
	case *ast.EmptyStmt:
	}
	return false
}

// caseBodies walks each case clause of a switch or select from the
// entry held set and merges the arms. A missing default means control
// may bypass every arm, so the entry set joins the merge; the whole
// statement terminates only when a default exists and every arm
// terminates.
func (w *walker) caseBodies(body *ast.BlockStmt, _ bool) bool {
	entry := cloneHeld(w.held)
	var merged map[string]Hold
	merge := func(m map[string]Hold) {
		if merged == nil {
			merged = cloneHeld(m)
		} else {
			merged = intersectHeld(merged, m)
		}
	}
	sawDefault := false
	allTerm := true
	hasArm := false
	for _, cc := range body.List {
		var stmts []ast.Stmt
		w.held = cloneHeld(entry)
		switch cc := cc.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				w.expr(e, false)
			}
			if cc.List == nil {
				sawDefault = true
			}
			stmts = cc.Body
		case *ast.CommClause:
			if cc.Comm == nil {
				sawDefault = true
			} else {
				w.stmt(cc.Comm)
			}
			stmts = cc.Body
		}
		hasArm = true
		if !w.stmts(stmts) {
			allTerm = false
			merge(w.held)
		}
	}
	if sawDefault && hasArm && allTerm {
		return true
	}
	if !sawDefault {
		merge(entry)
	}
	if merged == nil {
		merged = entry
	}
	w.held = merged
	return false
}

// expr walks an expression in evaluation order, intercepting calls
// and function literals.
func (w *walker) expr(e ast.Expr, deferred bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			w.lits = append(w.lits, n)
			return false
		case *ast.CallExpr:
			// An immediately-invoked literal runs its body inline, on
			// this goroutine, with whatever is held right now. Deferred
			// IIFEs run at function exit instead and stay on the
			// literal path.
			if lit, ok := n.Fun.(*ast.FuncLit); ok && !deferred {
				for _, a := range n.Args {
					w.expr(a, false)
				}
				w.inlineLit(lit)
				return false
			}
			// Arguments and receiver first (evaluation order), then
			// the call's own effect.
			w.expr(n.Fun, false)
			for _, a := range n.Args {
				w.expr(a, false)
			}
			w.call(n, deferred)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.expr(n.X, false)
				w.visit(n) // channel receive
				return false
			}
		}
		w.visit(n)
		return true
	})
}

func (w *walker) call(c *ast.CallExpr, deferred bool) {
	w.visit(c)
	if w.hooks.Classify == nil {
		return
	}
	act, key := w.hooks.Classify(c, deferred)
	switch act {
	case Acquire:
		w.seq++
		w.held[key] = Hold{Order: w.seq}
	case Release:
		delete(w.held, key)
	}
}

// inlineLit walks an immediately-invoked function literal's body with
// the current held set. Returns inside the literal exit the literal,
// not the enclosing function, so the sub-walk captures its own exit
// held sets (outer FuncEnd hooks must not fire) and the post-call
// held set is their intersection — the same conservative merge the
// branch rules use. A body that always panics leaves the held set
// untouched: control never reaches the code after the call.
func (w *walker) inlineLit(lit *ast.FuncLit) {
	sub := &walker{held: cloneHeld(w.held), seq: w.seq}
	var exits []map[string]Hold
	sub.hooks = Hooks{
		Classify: w.hooks.Classify,
		Visit:    w.hooks.Visit,
		FuncEnd: func(_ *ast.ReturnStmt, held map[string]Hold) {
			exits = append(exits, cloneHeld(held))
		},
	}
	if !sub.stmts(lit.Body.List) {
		exits = append(exits, sub.held)
	}
	w.seq = sub.seq
	w.lits = append(w.lits, sub.lits...)
	if len(exits) > 0 {
		merged := exits[0]
		for _, e := range exits[1:] {
			merged = intersectHeld(merged, e)
		}
		w.held = merged
	}
}

func (w *walker) visit(n ast.Node) {
	if w.hooks.Visit != nil {
		w.hooks.Visit(n, w.held)
	}
}

// isPanicCall reports whether e is a direct call to panic.
func isPanicCall(e ast.Expr) bool {
	c, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := c.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
