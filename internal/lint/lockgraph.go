package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file computes the whole-program lock facts shared by the
// interprocedural analyzers. One branch-aware walker records, per
// function:
//
//   - every mutex acquisition with the locks already held there,
//   - every lock still held, and not released by a defer, at a return
//     or at the end of the body (each function literal is its own
//     scope),
//   - every call with the held set, the must-held set and how the call
//     runs (normal, deferred, go),
//   - every fsync-like call, blocking channel send and module-struct
//     field access,
//
// then two fixpoints over the call graph derive:
//
//   - mayAcquire/maySync/maySend: the lock classes, fsyncs and blocking
//     sends a call into each function can transitively reach, with a
//     witness chain for diagnostics;
//   - entryMust: the locks every caller provably holds at a function's
//     entry (intersection over call sites), which atomicmix uses to
//     discharge // guarded by obligations in *Locked-style helpers.
//
// Lock identity is the declaring *types.Var: a struct field (db.mu and
// other.mu share a class — instance-insensitive by design) or a
// package-level mutex. Function-local mutexes get a nil class: they are
// tracked for intra-procedural state but never escape into summaries.

// heldMu is one acquisition live on the current path.
type heldMu struct {
	class *types.Var // nil for function-local mutexes
	key   string     // rendered mutex expression (local identity)
	rlock bool
	level int // hierarchy level, -1 if unranked
	pos   token.Pos
}

// muOp is one recognized sync.(RW)Mutex method call.
type muOp struct {
	name  string // Lock, RLock, Unlock, RUnlock
	key   string
	class *types.Var
	level int
	pos   token.Pos
}

func (op *muOp) locks() bool { return op.name == "Lock" || op.name == "RLock" }

// witness is one link in an acquisition chain: either a leaf fact
// (callee == nil: fn acquires/syncs/sends at pos) or a call link (fn
// calls callee at pos, and tail explains the callee).
type witness struct {
	fn     *types.Func
	pos    token.Pos
	callee *types.Func
	tail   *witness
}

// Event records with pre-state snapshots.
type acqEvent struct {
	op   muOp
	held []heldMu
	inGo bool
}

type callEvent struct {
	callee    *types.Func
	pos       token.Pos
	kind      CallKind
	inGo      bool
	freshRecv bool // receiver is a local, unpublished allocation
	held      []heldMu
	must      map[*types.Var]int
}

type syncEvent struct {
	callee *types.Func
	pos    token.Pos
	inGo   bool
	held   []heldMu
}

type sendEvent struct {
	pos  token.Pos
	inGo bool
	held []heldMu
}

type accessEvent struct {
	field *types.Var
	pos   token.Pos
	write bool
	inGo  bool
	fresh bool // base object is a local, unpublished allocation
	must  map[*types.Var]int
}

// lifeFlags summarize a function's join/cancel evidence for
// goroutinelife: does calling it (transitively) signal a WaitGroup,
// send on or close a channel, or block receiving from one.
type lifeFlags struct {
	wgDone    bool
	chanSend  bool
	chanClose bool
	chanRecv  bool
}

func (l *lifeFlags) merge(o lifeFlags) bool {
	changed := false
	if o.wgDone && !l.wgDone {
		l.wgDone, changed = true, true
	}
	if o.chanSend && !l.chanSend {
		l.chanSend, changed = true, true
	}
	if o.chanClose && !l.chanClose {
		l.chanClose, changed = true, true
	}
	if o.chanRecv && !l.chanRecv {
		l.chanRecv, changed = true, true
	}
	return changed
}

func (l lifeFlags) any() bool { return l.wgDone || l.chanSend || l.chanClose || l.chanRecv }

// fnFacts is everything the engine knows about one module function.
type fnFacts struct {
	fi       *FuncInfo
	acquires []acqEvent
	calls    []callEvent
	syncs    []syncEvent
	sends    []sendEvent
	accesses []accessEvent
	// atomicFields are module struct fields whose address this function
	// passes to a sync/atomic operation.
	atomicFields map[*types.Var][]token.Pos
	// leaks are acquisitions still held, with no deferred release, on
	// some return path of the function or of one of its literals.
	leaks []heldMu
	// wgAdds are positions of sync.WaitGroup Add calls (goroutinelife
	// requires one before a Done-joined spawn).
	wgAdds []token.Pos
	life   lifeFlags

	mayAcquire map[*types.Var]*witness
	maySync    *witness
	maySend    *witness

	// entryMust: lock classes (→ 1 R / 2 W) held at entry on every
	// counted call path. entryTop means "no call path seen yet" (⊤).
	entryTop  bool
	entryMust map[*types.Var]int
	// prePub: every call site invokes the function on a fresh, not yet
	// published receiver (constructor/recovery helpers) — guarded-field
	// obligations do not apply.
	prePub bool
}

// classMeta is per-lock-class display data.
type classMeta struct {
	display string
	level   int
}

// modFacts is the engine's output, shared by every RunModule analyzer.
type modFacts struct {
	mod     *Module
	cg      *CallGraph
	fns     map[*types.Func]*fnFacts
	classes map[*types.Var]*classMeta
}

func (mf *modFacts) classDisplay(v *types.Var) string {
	if m := mf.classes[v]; m != nil {
		return m.display
	}
	return v.Name()
}

func (mf *modFacts) classLevel(v *types.Var) int {
	if m := mf.classes[v]; m != nil {
		return m.level
	}
	return -1
}

// buildLockFacts walks every module function and runs the fixpoints.
func buildLockFacts(mod *Module, cg *CallGraph) *modFacts {
	mf := &modFacts{
		mod:     mod,
		cg:      cg,
		fns:     make(map[*types.Func]*fnFacts),
		classes: make(map[*types.Var]*classMeta),
	}
	for _, fi := range cg.Order {
		w := &flowWalker{
			mf:    mf,
			info:  fi.Pkg.Info,
			facts: &fnFacts{fi: fi, atomicFields: make(map[*types.Var][]token.Pos), entryTop: true},
			fresh: make(map[types.Object]bool),
			scope: fi.Decl.Body,
		}
		st := newFlowState()
		if !w.scanStmts(fi.Decl.Body.List, st) {
			w.recordExit(st) // falling off the end is a return path too
		}
		mf.fns[fi.Fn] = w.facts
	}
	mf.propagateSummaries()
	mf.computeEntryMust()
	return mf
}

// ---------------------------------------------------------------------
// Flow state

type flowState struct {
	held []heldMu
	must map[*types.Var]int
	// deferred holds the mutex keys a registered defer releases at
	// return. Joins union it over every branch, terminated ones
	// included.
	deferred map[string]bool
}

func newFlowState() *flowState {
	return &flowState{must: make(map[*types.Var]int), deferred: make(map[string]bool)}
}

func (s *flowState) clone() *flowState {
	c := &flowState{
		held:     append([]heldMu(nil), s.held...),
		must:     copyMust(s.must),
		deferred: make(map[string]bool, len(s.deferred)),
	}
	for k := range s.deferred {
		c.deferred[k] = true
	}
	return c
}

// joinDeferred unions a branch's deferred releases in.
func (s *flowState) joinDeferred(o *flowState) {
	for k := range o.deferred {
		s.deferred[k] = true
	}
}

// mergeHeld unions another surviving path's held set in (a lock held on
// any incoming path is treated as held).
func (s *flowState) mergeHeld(o *flowState) {
	for _, h := range o.held {
		found := false
		for _, have := range s.held {
			if have.pos == h.pos {
				found = true
				break
			}
		}
		if !found {
			s.held = append(s.held, h)
		}
	}
}

func intersectMust(a, b map[*types.Var]int) map[*types.Var]int {
	out := make(map[*types.Var]int)
	for k, va := range a {
		if vb, ok := b[k]; ok {
			if vb < va {
				out[k] = vb
			} else {
				out[k] = va
			}
		}
	}
	return out
}

func copyMust(m map[*types.Var]int) map[*types.Var]int {
	out := make(map[*types.Var]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func snapshotHeld(s *flowState) []heldMu {
	return append([]heldMu(nil), s.held...)
}

// ---------------------------------------------------------------------
// Walker

type flowWalker struct {
	mf    *modFacts
	info  *types.Info
	facts *fnFacts
	inGo  bool
	// scope is the body whose return paths recordExit checks: the
	// function's own, or the literal's being walked.
	scope ast.Node
	// fresh tracks locals assigned from &T{}, T{} composites or new(T):
	// objects that are not yet published, so locking disciplines do not
	// apply to them.
	fresh map[types.Object]bool
}

func (w *flowWalker) typeOf(e ast.Expr) types.Type {
	if tv, ok := w.info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := w.info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

func (w *flowWalker) scanStmts(stmts []ast.Stmt, st *flowState) bool {
	for _, stmt := range stmts {
		if w.scanStmt(stmt, st) {
			return true
		}
	}
	return false
}

func (w *flowWalker) scanStmt(stmt ast.Stmt, st *flowState) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			w.scanExpr(s.X, st)
			return false
		}
		if op := w.asMuOp(call); op != nil {
			w.applyMuOp(op, st)
			return false
		}
		w.scanExpr(s.X, st)
		return isTerminalCall(w.info, call)

	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.scanExpr(rhs, st)
		}
		for i, lhs := range s.Lhs {
			w.recordWrite(lhs, st)
			w.trackFresh(s, i, lhs)
		}
		return false

	case *ast.IncDecStmt:
		w.recordWrite(s.X, st)
		return false

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					w.scanExpr(v, st)
				}
				if len(vs.Values) == len(vs.Names) {
					for i, name := range vs.Names {
						if isFreshAlloc(vs.Values[i]) {
							w.fresh[w.info.ObjectOf(name)] = true
						}
					}
				}
			}
		}
		return false

	case *ast.SendStmt:
		w.scanExpr(s.Chan, st)
		w.scanExpr(s.Value, st)
		w.recordSend(s.Pos(), st)
		return false

	case *ast.DeferStmt:
		w.scanDefer(s.Call, st)
		return false

	case *ast.GoStmt:
		w.scanGo(s.Call, st)
		return false

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scanExpr(r, st)
		}
		w.recordExit(st)
		return true

	case *ast.BlockStmt:
		return w.scanStmts(s.List, st)

	case *ast.LabeledStmt:
		return w.scanStmt(s.Stmt, st)

	case *ast.IfStmt:
		if s.Init != nil {
			w.scanStmt(s.Init, st)
		}
		w.scanExpr(s.Cond, st)
		bodySt := st.clone()
		bodyTerm := w.scanStmts(s.Body.List, bodySt)
		st.joinDeferred(bodySt)
		if s.Else == nil {
			if !bodyTerm {
				st.mergeHeld(bodySt)
				st.must = intersectMust(st.must, bodySt.must)
			}
			return false
		}
		elseSt := st.clone()
		elseTerm := w.scanStmt(s.Else, elseSt)
		st.joinDeferred(elseSt)
		switch {
		case !bodyTerm && !elseTerm:
			st.held = nil
			st.mergeHeld(bodySt)
			st.mergeHeld(elseSt)
			st.must = intersectMust(bodySt.must, elseSt.must)
		case !bodyTerm:
			st.held = bodySt.held
			st.must = bodySt.must
		case !elseTerm:
			st.held = elseSt.held
			st.must = elseSt.must
		}
		return bodyTerm && elseTerm

	case *ast.ForStmt:
		if s.Init != nil {
			w.scanStmt(s.Init, st)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, st)
		}
		bodySt := st.clone()
		if !w.scanStmts(s.Body.List, bodySt) {
			st.mergeHeld(bodySt)
			st.must = intersectMust(st.must, bodySt.must)
		}
		st.joinDeferred(bodySt)
		return false

	case *ast.RangeStmt:
		w.scanExpr(s.X, st)
		if t := w.typeOf(s.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok && !w.inGo {
				w.facts.life.chanRecv = true
			}
		}
		bodySt := st.clone()
		if !w.scanStmts(s.Body.List, bodySt) {
			st.mergeHeld(bodySt)
			st.must = intersectMust(st.must, bodySt.must)
		}
		st.joinDeferred(bodySt)
		return false

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.scanClauses(s, st)

	case *ast.BranchStmt:
		return true
	}
	return false
}

// scanClauses handles switch/type-switch/select uniformly.
func (w *flowWalker) scanClauses(stmt ast.Stmt, st *flowState) bool {
	var clauses []ast.Stmt
	hasDefault := false
	exhaustive := false
	isSelect := false
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.scanStmt(s.Init, st)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, st)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.scanStmt(s.Init, st)
		}
		w.scanStmt(s.Assign, st)
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
		exhaustive = true // a select only leaves through one of its cases
		isSelect = true
		for _, cl := range clauses {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
	}
	merged := &flowState{}
	var mergedMust map[*types.Var]int
	survivors := 0
	allTerm := true
	for _, cl := range clauses {
		var body []ast.Stmt
		cSt := st.clone()
		switch c := cl.(type) {
		case *ast.CaseClause:
			body = c.Body
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				w.scanExpr(e, cSt)
			}
		case *ast.CommClause:
			body = c.Body
			if c.Comm != nil {
				w.scanSelectComm(c.Comm, cSt, hasDefault)
			}
		}
		terminated := w.scanStmts(body, cSt)
		st.joinDeferred(cSt)
		if terminated {
			continue
		}
		allTerm = false
		merged.mergeHeld(cSt)
		if survivors == 0 {
			mergedMust = copyMust(cSt.must)
		} else {
			mergedMust = intersectMust(mergedMust, cSt.must)
		}
		survivors++
	}
	if !allTerm {
		st.held = merged.held
		if !(isSelect || hasDefault) || len(clauses) == 0 {
			// Control can skip every clause: keep the pre-state in the join.
			mergedMust = intersectMust(mergedMust, st.must)
		}
		st.must = mergedMust
	}
	return allTerm && (exhaustive || hasDefault) && len(clauses) > 0
}

// scanSelectComm handles one select communication: a send there blocks
// unless the select has a default (polling idiom: try-send, else move
// on), a receive is join/cancel evidence for goroutinelife.
func (w *flowWalker) scanSelectComm(comm ast.Stmt, st *flowState, hasDefault bool) {
	switch c := comm.(type) {
	case *ast.SendStmt:
		w.scanExpr(c.Chan, st)
		w.scanExpr(c.Value, st)
		if !hasDefault {
			w.recordSend(c.Pos(), st)
		} else if !w.inGo {
			w.facts.life.chanSend = true
		}
	case *ast.ExprStmt:
		w.scanExpr(c.X, st)
	case *ast.AssignStmt:
		w.scanStmt(c, st)
	}
}

func (w *flowWalker) scanDefer(call *ast.CallExpr, st *flowState) {
	for _, arg := range call.Args {
		w.scanExpr(arg, st)
	}
	// Deferred unlocks, spelled directly or inside a deferred closure,
	// release at return; held state is unchanged mid-body.
	if op := w.asMuOp(call); op != nil {
		if !op.locks() {
			st.deferred[op.key] = true
		}
		return
	}
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if op := w.asMuOp(c); op != nil && !op.locks() {
					st.deferred[op.key] = true
				}
			}
			return true
		})
		w.walkLit(lit, st.clone(), w.inGo)
		return
	}
	if callee := staticCallee(w.info, call); callee != nil {
		w.recordCall(callee, call, CallDefer, st)
	}
}

func (w *flowWalker) scanGo(call *ast.CallExpr, st *flowState) {
	for _, arg := range call.Args {
		w.scanExpr(arg, st)
	}
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		// The goroutine starts with no locks: fresh state, events tagged
		// inGo so they stay local to the spawned body.
		w.walkLit(lit, newFlowState(), true)
		return
	}
	if callee := staticCallee(w.info, call); callee != nil {
		w.recordCall(callee, call, CallGo, st)
	}
}

// walkLit analyzes a function literal's body inline: events are recorded
// against the enclosing function (tagged per inGo), state changes are
// discarded (the literal may run later, or not at all). The literal is
// its own leak scope: only its own defers release, and only locks it
// acquires can leak from it.
func (w *flowWalker) walkLit(lit *ast.FuncLit, st *flowState, inGo bool) {
	sub := &flowWalker{mf: w.mf, info: w.info, facts: w.facts, inGo: inGo, fresh: w.fresh, scope: lit.Body}
	st.deferred = make(map[string]bool)
	if !sub.scanStmts(lit.Body.List, st) {
		sub.recordExit(st)
	}
}

// recordExit records the locks acquired in the current scope that are
// still held, with no deferred release, where the scope returns.
func (w *flowWalker) recordExit(st *flowState) {
	for _, h := range st.held {
		if !st.deferred[h.key] && w.scope.Pos() <= h.pos && h.pos < w.scope.End() {
			w.facts.leaks = append(w.facts.leaks, h)
		}
	}
}

// scanExpr records calls, field accesses, atomic uses and channel
// receives inside one expression. Nested function literals are walked
// inline on a cloned state.
func (w *flowWalker) scanExpr(e ast.Expr, st *flowState) {
	if e == nil {
		return
	}
	skip := make(map[ast.Node]bool)
	ast.Inspect(e, func(n ast.Node) bool {
		if skip[n] {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			w.walkLit(x, st.clone(), w.inGo)
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !w.inGo {
				w.facts.life.chanRecv = true
			}
			if x.Op == token.AND {
				// Taking a field's address hands out mutable access.
				if sel, ok := unparen(x.X).(*ast.SelectorExpr); ok && !skip[sel] {
					w.recordAccessChain(sel, true, st)
					skip[sel] = true
				}
			}
		case *ast.CallExpr:
			w.scanCall(x, st, skip)
		case *ast.SelectorExpr:
			w.recordAccessChain(x, false, st)
			return false // recordAccessChain covers the whole chain
		}
		return true
	})
}

// scanCall classifies one call expression inside scanExpr.
func (w *flowWalker) scanCall(call *ast.CallExpr, st *flowState, skip map[ast.Node]bool) {
	// close(ch) is join evidence.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.info.ObjectOf(id).(*types.Builtin); ok {
			if b.Name() == "close" && !w.inGo {
				w.facts.life.chanClose = true
			}
			return
		}
	}
	callee := staticCallee(w.info, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	switch callee.Pkg().Path() {
	case "sync":
		if recvNamed(callee) == "WaitGroup" {
			switch callee.Name() {
			case "Done":
				if !w.inGo {
					w.facts.life.wgDone = true
				}
			case "Add":
				if !w.inGo {
					w.facts.wgAdds = append(w.facts.wgAdds, call.Pos())
				}
			}
		}
		// Lock/Unlock in expression position is not a statement-level
		// acquisition; only statement-level calls change the held set.
		return
	case "sync/atomic":
		// atomic.AddUint64(&s.n, 1): s.n is atomically accessed; the
		// address-of argument itself must not count as a plain access.
		for _, arg := range call.Args {
			ue, ok := unparen(arg).(*ast.UnaryExpr)
			if !ok || ue.Op != token.AND {
				continue
			}
			sel, ok := unparen(ue.X).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if f := w.fieldOf(sel); f != nil {
				w.facts.atomicFields[f] = append(w.facts.atomicFields[f], sel.Pos())
				skip[ue] = true
				skip[sel] = true
			}
		}
		return
	}
	if isSyncRoot(callee) {
		w.facts.syncs = append(w.facts.syncs, syncEvent{
			callee: callee, pos: call.Pos(), inGo: w.inGo, held: snapshotHeld(st),
		})
		return
	}
	w.recordCall(callee, call, CallNormal, st)
}

func (w *flowWalker) recordCall(callee *types.Func, call *ast.CallExpr, kind CallKind, st *flowState) {
	fresh := false
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := unparen(sel.X).(*ast.Ident); ok {
			fresh = w.fresh[w.info.ObjectOf(id)]
		}
	}
	w.facts.calls = append(w.facts.calls, callEvent{
		callee: callee, pos: call.Pos(), kind: kind, inGo: w.inGo,
		freshRecv: fresh, held: snapshotHeld(st), must: copyMust(st.must),
	})
}

func (w *flowWalker) recordSend(pos token.Pos, st *flowState) {
	if !w.inGo {
		w.facts.life.chanSend = true
	}
	w.facts.sends = append(w.facts.sends, sendEvent{pos: pos, inGo: w.inGo, held: snapshotHeld(st)})
}

// recordWrite records the fields an assignment target mutates: every
// field in a selector chain (writing x.a.b mutates state reachable
// through both a and b), the chain behind an index expression (map and
// slice element writes mutate the container), and nothing for plain
// locals.
func (w *flowWalker) recordWrite(lhs ast.Expr, st *flowState) {
	switch x := unparen(lhs).(type) {
	case *ast.SelectorExpr:
		w.recordAccessChain(x, true, st)
	case *ast.IndexExpr:
		w.scanExpr(x.Index, st)
		w.recordWrite(x.X, st)
	case *ast.StarExpr:
		w.scanExpr(x.X, st)
	}
}

// recordAccessChain records one access event per module struct field in
// a selector chain (w.stats.count touches both stats and count).
func (w *flowWalker) recordAccessChain(sel *ast.SelectorExpr, write bool, st *flowState) {
	fresh := false
	if id, ok := unparen(baseExpr(sel)).(*ast.Ident); ok {
		fresh = w.fresh[w.info.ObjectOf(id)]
	}
	for {
		if f := w.fieldOf(sel); f != nil && w.mf.isModuleObj(f) {
			w.facts.accesses = append(w.facts.accesses, accessEvent{
				field: f, pos: sel.Sel.Pos(), write: write, inGo: w.inGo,
				fresh: fresh, must: copyMust(st.must),
			})
		}
		inner, ok := unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			w.scanExpr(sel.X, st)
			return
		}
		sel = inner
	}
}

// fieldOf resolves a selector to the struct field it reads, or nil.
func (w *flowWalker) fieldOf(sel *ast.SelectorExpr) *types.Var {
	s := w.info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// baseExpr returns the leftmost operand of a selector chain.
func baseExpr(e ast.Expr) ast.Expr {
	for {
		switch x := unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			return x
		default:
			return x
		}
	}
}

func (w *flowWalker) trackFresh(s *ast.AssignStmt, i int, lhs ast.Expr) {
	id, ok := unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := w.info.ObjectOf(id)
	if obj == nil {
		return
	}
	if len(s.Rhs) == len(s.Lhs) && isFreshAlloc(s.Rhs[i]) {
		w.fresh[obj] = true
		return
	}
	delete(w.fresh, obj)
}

// isFreshAlloc recognizes &T{...}, T{...} and new(T): allocations no
// other goroutine can reference yet.
func isFreshAlloc(e ast.Expr) bool {
	switch x := unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op != token.AND {
			return false
		}
		_, ok := unparen(x.X).(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		id, ok := unparen(x.Fun).(*ast.Ident)
		return ok && id.Name == "new"
	}
	return false
}

// applyMuOp folds one (un)lock into the path state and records acquire
// events.
func (w *flowWalker) applyMuOp(op *muOp, st *flowState) {
	if !op.locks() {
		for i := len(st.held) - 1; i >= 0; i-- {
			if st.held[i].key != op.key {
				continue
			}
			cls := st.held[i].class
			st.held = append(st.held[:i:i], st.held[i+1:]...)
			if cls != nil {
				still := false
				for _, h := range st.held {
					if h.class == cls {
						still = true
						break
					}
				}
				if !still {
					delete(st.must, cls)
				}
			}
			return
		}
		return
	}
	w.facts.acquires = append(w.facts.acquires, acqEvent{op: *op, held: snapshotHeld(st), inGo: w.inGo})
	st.held = append(st.held, heldMu{
		class: op.class, key: op.key, rlock: op.name == "RLock", level: op.level, pos: op.pos,
	})
	if op.class != nil {
		lvl := 2
		if op.name == "RLock" {
			lvl = 1
		}
		if cur, ok := st.must[op.class]; !ok || lvl > cur {
			st.must[op.class] = lvl
		}
	}
}

// asMuOp recognizes sync.Mutex / sync.RWMutex method calls, resolving
// the mutex's class, key and hierarchy level.
func (w *flowWalker) asMuOp(call *ast.CallExpr) *muOp {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil
	}
	fn, ok := w.info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil
	}
	class, display := w.mf.resolveClass(w.info, sel.X)
	level := lockLevelOf(w.info, sel.X)
	if class != nil {
		if meta := w.mf.classes[class]; meta == nil {
			w.mf.classes[class] = &classMeta{display: display, level: level}
		}
	}
	return &muOp{name: sel.Sel.Name, key: exprString(sel.X), class: class, level: level, pos: call.Pos()}
}

// resolveClass maps a mutex expression to its lock class: the declaring
// struct-field or package-level *types.Var. Function-local mutexes have
// no class.
func (mf *modFacts) resolveClass(info *types.Info, x ast.Expr) (*types.Var, string) {
	switch e := unparen(x).(type) {
	case *ast.SelectorExpr:
		if s := info.Selections[e]; s != nil && s.Kind() == types.FieldVal {
			v, ok := s.Obj().(*types.Var)
			if !ok || !mf.isModuleObj(v) {
				return nil, ""
			}
			disp := v.Name()
			if n := namedOf(typeOfExpr(info, e.X)); n != nil {
				disp = n.Obj().Name() + "." + disp
			}
			if v.Pkg() != nil {
				disp = v.Pkg().Name() + "." + disp
			}
			return v, disp
		}
		if vo, ok := info.Uses[e.Sel].(*types.Var); ok && !vo.IsField() && vo.Pkg() != nil &&
			vo.Parent() == vo.Pkg().Scope() && mf.isModuleObj(vo) {
			return vo, vo.Pkg().Name() + "." + vo.Name()
		}
	case *ast.Ident:
		if vo, ok := info.ObjectOf(e).(*types.Var); ok && !vo.IsField() && vo.Pkg() != nil &&
			vo.Parent() == vo.Pkg().Scope() && mf.isModuleObj(vo) {
			return vo, vo.Pkg().Name() + "." + vo.Name()
		}
	}
	return nil, ""
}

// isModuleObj reports whether obj is declared in a package of the
// analyzed module.
func (mf *modFacts) isModuleObj(obj types.Object) bool {
	p := obj.Pkg()
	if p == nil {
		return false
	}
	return p.Path() == mf.mod.Path || strings.HasPrefix(p.Path(), mf.mod.Path+"/")
}

// isSyncRoot recognizes calls that reach fsync: os.File.Sync and the
// Sync/SyncDir methods of any package named vfs (the module's
// filesystem seam; matched by name so fixtures exercise the rule).
func isSyncRoot(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Name() {
	case "Sync", "SyncDir":
	default:
		return false
	}
	return fn.Pkg().Path() == "os" || fn.Pkg().Name() == "vfs"
}

// recvNamed returns the name of fn's receiver type, or "".
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if n := namedOf(sig.Recv().Type()); n != nil {
		return n.Obj().Name()
	}
	return ""
}

// ---------------------------------------------------------------------
// Fixpoints

// propagateSummaries computes transitive mayAcquire/maySync/maySend and
// goroutinelife flags over normal and deferred call edges. Events inside
// spawned goroutines stay local: a caller does not hold what a goroutine
// it launches acquires.
func (mf *modFacts) propagateSummaries() {
	for _, fi := range mf.cg.Order {
		f := mf.fns[fi.Fn]
		f.mayAcquire = make(map[*types.Var]*witness)
		for i := range f.acquires {
			acq := &f.acquires[i]
			if acq.inGo || !acq.op.locks() || acq.op.class == nil {
				continue
			}
			if f.mayAcquire[acq.op.class] == nil {
				f.mayAcquire[acq.op.class] = &witness{fn: fi.Fn, pos: acq.op.pos}
			}
		}
		for i := range f.syncs {
			if !f.syncs[i].inGo && f.maySync == nil {
				f.maySync = &witness{fn: fi.Fn, pos: f.syncs[i].pos, callee: f.syncs[i].callee}
			}
		}
		for i := range f.sends {
			if !f.sends[i].inGo && f.maySend == nil {
				f.maySend = &witness{fn: fi.Fn, pos: f.sends[i].pos}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range mf.cg.Order {
			f := mf.fns[fi.Fn]
			for i := range f.calls {
				call := &f.calls[i]
				if call.inGo || call.kind == CallGo {
					continue
				}
				for _, target := range mf.cg.Targets(call.callee) {
					g := mf.fns[target]
					if g == nil || g == f {
						continue
					}
					for class, wt := range g.mayAcquire {
						if f.mayAcquire[class] == nil {
							f.mayAcquire[class] = &witness{fn: fi.Fn, pos: call.pos, callee: target, tail: wt}
							changed = true
						}
					}
					if g.maySync != nil && f.maySync == nil {
						f.maySync = &witness{fn: fi.Fn, pos: call.pos, callee: target, tail: g.maySync}
						changed = true
					}
					if g.maySend != nil && f.maySend == nil {
						f.maySend = &witness{fn: fi.Fn, pos: call.pos, callee: target, tail: g.maySend}
						changed = true
					}
					if f.life.merge(g.life) {
						changed = true
					}
				}
			}
		}
	}
}

// computeEntryMust derives, per function, the locks provably held at
// entry on every counted call path: the intersection over call sites of
// the caller's entry set plus its local must set at the site. go sites
// contribute the empty set (a goroutine starts with nothing); calls on
// fresh receivers are excluded, and a function only ever invoked on
// fresh receivers is pre-publication. Exported and escaping functions
// are pinned to the empty set: the graph cannot see their callers.
func (mf *modFacts) computeEntryMust() {
	type siteInfo struct {
		fromTop bool // caller's entry set still unknown
		must    map[*types.Var]int
	}
	for _, fi := range mf.cg.Order {
		f := mf.fns[fi.Fn]
		if fi.External {
			f.entryTop = false
			f.entryMust = map[*types.Var]int{}
		}
	}
	for changed := true; changed; {
		changed = false
		// Recollect contributions per callee from current entry sets.
		sites := make(map[*types.Func][]siteInfo)
		sawFresh := make(map[*types.Func]bool)
		for _, fi := range mf.cg.Order {
			f := mf.fns[fi.Fn]
			for i := range f.calls {
				call := &f.calls[i]
				for _, target := range mf.cg.Targets(call.callee) {
					if mf.fns[target] == nil {
						continue
					}
					if call.freshRecv {
						sawFresh[target] = true
						continue
					}
					var si siteInfo
					switch {
					case call.kind == CallGo || call.inGo:
						si = siteInfo{must: map[*types.Var]int{}}
					case f.entryTop:
						si = siteInfo{fromTop: true}
					default:
						si = siteInfo{must: unionMust(f.entryMust, call.must)}
					}
					sites[target] = append(sites[target], si)
				}
			}
		}
		for _, fi := range mf.cg.Order {
			f := mf.fns[fi.Fn]
			if fi.External {
				continue
			}
			ss := sites[fi.Fn]
			if len(ss) == 0 {
				if sawFresh[fi.Fn] && !f.prePub {
					// Only ever invoked on unpublished receivers.
					f.prePub = true
					changed = true
				}
				if f.entryTop {
					// Never called in the graph: no guarantee.
					f.entryTop = false
					f.entryMust = map[*types.Var]int{}
					changed = true
				}
				continue
			}
			var acc map[*types.Var]int
			allTop := true
			for _, si := range ss {
				if si.fromTop {
					continue
				}
				allTop = false
				if acc == nil {
					acc = copyMust(si.must)
				} else {
					acc = intersectMust(acc, si.must)
				}
			}
			if allTop {
				continue // every caller still unknown; try next round
			}
			if f.entryTop || !sameMust(f.entryMust, acc) {
				f.entryTop = false
				f.entryMust = acc
				changed = true
			}
		}
	}
	// Anything still ⊤ sits on an unreachable call cycle: no guarantee.
	for _, fi := range mf.cg.Order {
		f := mf.fns[fi.Fn]
		if f.entryTop {
			f.entryTop = false
			f.entryMust = map[*types.Var]int{}
		}
	}
}

func unionMust(a, b map[*types.Var]int) map[*types.Var]int {
	out := copyMust(a)
	for k, v := range b {
		if cur, ok := out[k]; !ok || v > cur {
			out[k] = v
		}
	}
	return out
}

func sameMust(a, b map[*types.Var]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// isTerminalCall reports calls that never return: panic and os.Exit-like
// fatals. Used to avoid leak reports on paths that abort the process.
func isTerminalCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, ok := info.Uses[fun].(*types.Builtin); ok && fun.Name == "panic" {
			return true
		}
		// Locally defined fatalf helpers (the cmds' idiom).
		if fun.Name == "fatalf" || fun.Name == "fatal" {
			return true
		}
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() {
		case "os":
			return fn.Name() == "Exit"
		case "log":
			switch fn.Name() {
			case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
				return true
			}
		}
	}
	return false
}

// typeOfExpr is Pass.typeOf without the Pass.
func typeOfExpr(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// staticCallee resolves the statically-known function or method a call
// invokes, or nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
