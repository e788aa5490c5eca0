package lint

import (
	"go/ast"
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
//
// Running once per module on the shared lock facts (lockgraph.go; the
// pass is in lockorder_module.go), the analyzer flags:
//
//   - acquiring a mutex at the same or an earlier level while holding a
//     later one (an engine lock taken under a pager lock inverts the
//     hierarchy and can deadlock against the normal descent) — checked
//     both where the acquisition is spelled out and at every call that
//     can transitively reach one (the diagnostic carries the
//     acquisition chain);
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
var LockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "check checkpoint → shard-view → engine → Index → Tree → pager lock ordering (intra- and interprocedural), double-acquires, upgrades, unlock-on-every-path, cycles, and locks held across fsync or blocking sends",
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
