package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockOrder enforces the documented lock hierarchy and structural locking
// hygiene. The hierarchy, outermost first, is
//
//	checkpoint (level 0) → shard-view (level 1) → engine (level 2) → Index (level 3) → Tree (level 4) → pager (level 5)
//
// where a mutex's level comes first from its field name (a field named
// ckptMu is the checkpoint serialization lock, above everything — it is
// taken before the short engine.mu holds inside DB.Checkpoint and must
// never be acquired while one is held; a field named viewMu is DB's
// cross-shard view lock, taken before any shard's engine.mu), then from
// the type that owns it (a type named engine — one shard of a DB — Index
// or Tree) or, failing that, from the owning type's package (btree → 4,
// pager → 5).
// Within one function body the analyzer flags:
//
//   - acquiring a mutex at the same or an earlier level while holding a
//     later one (an engine lock taken under a pager lock inverts the
//     hierarchy and can deadlock against the normal descent) — checked
//     both where the acquisition is spelled out and, through the
//     module-wide lock graph, at every call that can transitively reach
//     one (the diagnostic carries the acquisition chain);
//   - re-acquiring a mutex already held, including the RLock-then-Lock
//     upgrade, both of which self-deadlock under sync;
//   - a Lock/RLock with a return path (or function end) that neither
//     unlocks nor defers the unlock;
//   - lock-order cycles among lock classes, including unranked ones,
//     anywhere in the module (reported once per strongly connected
//     component, with the full acquisition chain);
//   - a ranked lock held across an fsync (directly or through callees):
//     fsync latency under the engine hierarchy stalls every waiter;
//   - a classed lock held across a blocking channel send, which couples
//     lock hold time to an arbitrary receiver.
//
// The per-function pass (Run) handles the structural checks; the
// interprocedural ones run once per module on the shared lock graph
// (RunModule, see lockorder_module.go).
var LockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "check checkpoint → shard-view → engine → Index → Tree → pager lock ordering (intra- and interprocedural), double-acquires, upgrades, unlock-on-every-path, cycles, and locks held across fsync or blocking sends",
	Run:       runLockOrder,
	RunModule: runLockOrderModule,
}

// Hierarchy levels by mutex field name, by owning type name, and by
// owning package name — consulted in that order: the field name is the
// most specific signal (ckptMu ranks above every type-ranked lock).
var (
	lockLevelByField = map[string]int{"ckptMu": 0, "viewMu": 1}
	lockLevelByType  = map[string]int{"engine": 2, "Index": 3, "Tree": 4}
	lockLevelByPkg   = map[string]int{"btree": 4, "pager": 5}
	lockLevelLabel   = []string{"checkpoint", "shard-view", "engine", "Index", "Tree", "pager"}
)

// lockCall is one recognized sync.Mutex/RWMutex (un)lock call site.
type lockCall struct {
	name  string // Lock, RLock, Unlock, RUnlock
	key   string // rendered mutex expression, e.g. "ix.mu"
	level int    // hierarchy level, -1 if unknown
	pos   token.Pos
}

func (lc *lockCall) locks() bool   { return lc.name == "Lock" || lc.name == "RLock" }
func (lc *lockCall) unlocks() bool { return lc.name == "Unlock" || lc.name == "RUnlock" }

// heldLock is one acquisition not yet released on the current path.
type heldLock struct {
	key   string
	name  string // Lock or RLock
	level int
	pos   token.Pos
}

// lockState is the per-path analysis state.
type lockState struct {
	held     []heldLock
	deferred map[string]bool // mutex keys released by a defer
}

func newLockState() *lockState {
	return &lockState{deferred: make(map[string]bool)}
}

func (s *lockState) clone() *lockState {
	c := &lockState{
		held:     append([]heldLock(nil), s.held...),
		deferred: make(map[string]bool, len(s.deferred)),
	}
	for k := range s.deferred {
		c.deferred[k] = true
	}
	return c
}

// merge unions another surviving path's state in (conservative: a lock
// held on any incoming path is treated as held).
func (s *lockState) merge(o *lockState) {
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
	for k := range o.deferred {
		s.deferred[k] = true
	}
}

type lockChecker struct {
	pass *Pass
	// reportedLeak dedupes missing-unlock reports per acquisition site
	// (one lock before a loop of returns should report once).
	reportedLeak map[token.Pos]bool
}

func runLockOrder(pass *Pass) {
	lc := &lockChecker{pass: pass, reportedLeak: make(map[token.Pos]bool)}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				st := newLockState()
				terminated := lc.scanStmts(body.List, st)
				if !terminated {
					// Falling off the end of the function is a return path
					// too (only possible for functions without results).
					lc.reportLeaks(st)
				}
			}
			return true // descend: nested FuncLits are analyzed separately
		})
	}
}

// scanStmts walks one statement list, updating the path state. It returns
// true when every path through the list terminates (return, panic, or a
// branch out), meaning control never falls through to the caller's next
// statement.
func (lc *lockChecker) scanStmts(stmts []ast.Stmt, st *lockState) bool {
	for _, stmt := range stmts {
		if lc.scanStmt(stmt, st) {
			return true
		}
	}
	return false
}

func (lc *lockChecker) scanStmt(stmt ast.Stmt, st *lockState) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		if c := lc.asLockCall(call); c != nil {
			lc.apply(c, st)
			return false
		}
		return isTerminalCall(lc.pass.Info, call)

	case *ast.DeferStmt:
		lc.registerDefer(s.Call, st)
		return false

	case *ast.ReturnStmt:
		lc.reportLeaks(st)
		return true

	case *ast.BlockStmt:
		return lc.scanStmts(s.List, st)

	case *ast.LabeledStmt:
		return lc.scanStmt(s.Stmt, st)

	case *ast.IfStmt:
		if s.Init != nil {
			lc.scanStmt(s.Init, st)
		}
		bodySt := st.clone()
		bodyTerm := lc.scanStmts(s.Body.List, bodySt)
		if s.Else == nil {
			// Fallthrough joins the pre-if path with the body path.
			if !bodyTerm {
				st.merge(bodySt)
			} else {
				st.merge(&lockState{deferred: bodySt.deferred})
			}
			return false
		}
		elseSt := st.clone()
		elseTerm := lc.scanStmt(s.Else, elseSt)
		st.held = nil
		if !bodyTerm {
			st.merge(bodySt)
		}
		if !elseTerm {
			st.merge(elseSt)
		}
		for k := range bodySt.deferred {
			st.deferred[k] = true
		}
		for k := range elseSt.deferred {
			st.deferred[k] = true
		}
		return bodyTerm && elseTerm

	case *ast.ForStmt:
		if s.Init != nil {
			lc.scanStmt(s.Init, st)
		}
		bodySt := st.clone()
		lc.scanStmts(s.Body.List, bodySt)
		st.merge(bodySt) // zero or more iterations: union the states
		return false

	case *ast.RangeStmt:
		bodySt := st.clone()
		lc.scanStmts(s.Body.List, bodySt)
		st.merge(bodySt)
		return false

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return lc.scanClauses(s, st)

	case *ast.BranchStmt:
		// break/continue/goto leave this statement list; treat the path
		// as terminated here (held state inside loops is already unioned
		// by the enclosing For/Range handling).
		return true

	case *ast.GoStmt:
		// The goroutine's body is analyzed as its own function.
		return false
	}
	return false
}

// scanClauses handles switch/type-switch/select uniformly.
func (lc *lockChecker) scanClauses(stmt ast.Stmt, st *lockState) bool {
	var clauses []ast.Stmt
	hasDefault := false
	exhaustive := false
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			lc.scanStmt(s.Init, st)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			lc.scanStmt(s.Init, st)
		}
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
		exhaustive = true // a select only leaves through one of its cases
	}
	merged := &lockState{deferred: st.deferred}
	allTerm := true
	for _, cl := range clauses {
		var body []ast.Stmt
		switch c := cl.(type) {
		case *ast.CaseClause:
			body = c.Body
			if c.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			body = c.Body
		}
		cSt := st.clone()
		if lc.scanStmts(body, cSt) {
			for k := range cSt.deferred {
				st.deferred[k] = true
			}
			continue
		}
		allTerm = false
		merged.merge(cSt)
	}
	if !allTerm {
		st.held = merged.held
	}
	return allTerm && (exhaustive || hasDefault) && len(clauses) > 0
}

// apply folds one lock/unlock call into the path state, reporting
// hierarchy and re-acquisition violations at acquisition sites.
func (lc *lockChecker) apply(c *lockCall, st *lockState) {
	if c.unlocks() {
		for i := len(st.held) - 1; i >= 0; i-- {
			if st.held[i].key == c.key {
				st.held = append(st.held[:i:i], st.held[i+1:]...)
				return
			}
		}
		return // unlock of something not held here (e.g. Cursor.Close)
	}
	for _, h := range st.held {
		if h.key == c.key {
			if h.name == "RLock" && c.name == "Lock" {
				lc.pass.Reportf(c.pos,
					"read-to-write upgrade: %s.Lock() while %s.RLock() is held self-deadlocks", c.key, c.key)
			} else {
				lc.pass.Reportf(c.pos,
					"%s.%s() while %s is already held (acquired at %s) self-deadlocks",
					c.key, c.name, c.key, lc.pass.Fset.Position(h.pos))
			}
		}
		// Hierarchy violations are the lock graph's job (RunModule):
		// it sees the same local acquisitions plus everything callees do.
	}
	st.held = append(st.held, heldLock{key: c.key, name: c.name, level: c.level, pos: c.pos})
}

// registerDefer records deferred unlocks, including the common
// "defer func() { mu.Unlock() }()" form.
func (lc *lockChecker) registerDefer(call *ast.CallExpr, st *lockState) {
	if c := lc.asLockCall(call); c != nil && c.unlocks() {
		st.deferred[c.key] = true
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if inner, ok := n.(*ast.CallExpr); ok {
				if c := lc.asLockCall(inner); c != nil && c.unlocks() {
					st.deferred[c.key] = true
				}
			}
			return true
		})
	}
}

// reportLeaks reports every held, non-deferred lock at its acquisition
// site, once per site.
func (lc *lockChecker) reportLeaks(st *lockState) {
	for _, h := range st.held {
		if st.deferred[h.key] || lc.reportedLeak[h.pos] {
			continue
		}
		lc.reportedLeak[h.pos] = true
		release := "Unlock"
		if h.name == "RLock" {
			release = "RUnlock"
		}
		lc.pass.Reportf(h.pos,
			"%s.%s() is not released on every return path (missing %s.%s() or defer)",
			h.key, h.name, h.key, release)
	}
}

// asLockCall recognizes sync.Mutex / sync.RWMutex method calls and
// resolves the mutex's identity and hierarchy level.
func (lc *lockChecker) asLockCall(call *ast.CallExpr) *lockCall {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil
	}
	fn, ok := lc.pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil
	}
	return &lockCall{
		name:  sel.Sel.Name,
		key:   exprString(sel.X),
		level: lockLevelOf(lc.pass.Info, sel.X),
		pos:   call.Pos(),
	}
}

// lockLevelOf derives the hierarchy level of mutex expression x: the
// mutex's own field name first ("db.ckptMu" → checkpoint level,
// whatever type holds it), then the owning type ("owner.mu" → owner's
// type; a bare receiver with an embedded mutex → the receiver's type).
func lockLevelOf(info *types.Info, x ast.Expr) int {
	var ownerT types.Type
	switch e := unparen(x).(type) {
	case *ast.SelectorExpr:
		if lvl, ok := lockLevelByField[e.Sel.Name]; ok {
			return lvl
		}
		ownerT = typeOfExpr(info, e.X)
	case *ast.Ident:
		if lvl, ok := lockLevelByField[e.Name]; ok {
			return lvl
		}
		ownerT = typeOfExpr(info, x)
	default:
		ownerT = typeOfExpr(info, x)
	}
	n := namedOf(ownerT)
	if n == nil {
		return -1
	}
	obj := n.Obj()
	if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
		// A bare mutex variable: fall back to the package declaring it.
		if id, ok := unparen(x).(*ast.Ident); ok {
			if vo := info.ObjectOf(id); vo != nil && vo.Pkg() != nil {
				if lvl, ok := lockLevelByPkg[vo.Pkg().Name()]; ok {
					return lvl
				}
			}
		}
		return -1
	}
	if lvl, ok := lockLevelByType[obj.Name()]; ok {
		return lvl
	}
	if obj.Pkg() != nil {
		if lvl, ok := lockLevelByPkg[obj.Pkg().Name()]; ok {
			return lvl
		}
	}
	return -1
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
