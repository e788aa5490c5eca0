// Package locks seeds every violation class the lockorder analyzer
// recognizes, next to the clean shapes it must accept.
package locks

import (
	"errors"
	"sync"

	"fixture/pager"
)

// engine, Index and Tree carry the level-2/3/4 locks of the documented
// hierarchy, ranked by type name like the real tree's; pager.Store
// carries level 5; DB's ckptMu field carries level 0 (the checkpoint
// serialization lock) and viewMu level 1 (the cross-shard view lock),
// both ranked by field name.
type DB struct {
	ckptMu sync.Mutex
	viewMu sync.RWMutex
}

type engine struct{ mu sync.RWMutex }

type Index struct{ mu sync.RWMutex }

type Tree struct{ mu sync.RWMutex }

// Inverted acquires an engine lock under a Tree lock: hierarchy
// inversion.
func Inverted(e *engine, t *Tree) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.mu.Lock() // want "lock order violation: acquiring engine lock e.mu while holding Tree lock t.mu"
	defer e.mu.Unlock()
}

// SameLevel nests two locks of the same level, which the hierarchy
// cannot order.
func SameLevel(a, b *Index) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want "lock order violation: acquiring Index lock b.mu while holding Index lock a.mu"
	defer b.mu.Unlock()
}

// PagerThenTree acquires a Tree lock while holding a pager lock.
func PagerThenTree(s *pager.Store, t *Tree) {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	t.mu.Lock() // want "lock order violation: acquiring Tree lock t.mu while holding pager lock s.Mu"
	defer t.mu.Unlock()
}

// MutationThenCkpt acquires the checkpoint lock under an engine lock —
// against a checkpoint holding ckptMu and waiting on e.mu, that
// deadlocks.
func MutationThenCkpt(db *DB, e *engine) {
	e.mu.Lock()
	defer e.mu.Unlock()
	db.ckptMu.Lock() // want "lock order violation: acquiring checkpoint lock db.ckptMu while holding engine lock e.mu"
	defer db.ckptMu.Unlock()
}

// CkptThenEngine descends the hierarchy from the checkpoint lock: clean —
// DB.Checkpoint's capture and finish sections take exactly this shape.
func CkptThenEngine(db *DB, e *engine) {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	e.mu.RLock()
	e.mu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
}

// MutationThenView acquires the shard-view lock under an engine lock —
// against a snapshot reader holding viewMu and waiting on e.mu, that
// deadlocks.
func MutationThenView(db *DB, e *engine) {
	e.mu.Lock()
	defer e.mu.Unlock()
	db.viewMu.RLock() // want "lock order violation: acquiring shard-view lock db.viewMu while holding engine lock e.mu"
	defer db.viewMu.RUnlock()
}

// ViewThenCkpt acquires the checkpoint lock under the shard-view lock:
// a checkpoint takes ckptMu first, then viewMu.
func ViewThenCkpt(db *DB) {
	db.viewMu.Lock()
	defer db.viewMu.Unlock()
	db.ckptMu.Lock() // want "lock order violation: acquiring checkpoint lock db.ckptMu while holding shard-view lock db.viewMu"
	defer db.ckptMu.Unlock()
}

// ViewThenEngine descends from the shard-view lock into a shard's engine
// lock: clean — DB's mutation and snapshot paths take exactly this
// shape.
func ViewThenEngine(db *DB, e *engine) {
	db.viewMu.RLock()
	defer db.viewMu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
}

// Upgrade attempts the RLock-then-Lock upgrade on one mutex.
func Upgrade(ix *Index) {
	ix.mu.RLock()
	ix.mu.Lock() // want "read-to-write upgrade: ix.mu.Lock() while ix.mu.RLock() is held self-deadlocks"
	ix.mu.Unlock()
	ix.mu.RUnlock()
}

// DoubleLock re-acquires a mutex it already holds.
func DoubleLock(t *Tree) {
	t.mu.Lock()
	t.mu.Lock() // want "t.mu.Lock() while t.mu is already held"
	t.mu.Unlock()
	t.mu.Unlock()
}

// LeakOnError returns early without releasing.
func LeakOnError(t *Tree, fail bool) error {
	t.mu.Lock() // want "t.mu.Lock() is not released on every return path"
	if fail {
		return errors.New("boom")
	}
	t.mu.Unlock()
	return nil
}

// ProperDescent takes the three levels in hierarchy order: clean.
func ProperDescent(e *engine, ix *Index, t *Tree) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
}

// BranchRelease unlocks explicitly on every return path: clean.
func BranchRelease(t *Tree, fail bool) error {
	t.mu.Lock()
	if fail {
		t.mu.Unlock()
		return errors.New("boom")
	}
	t.mu.Unlock()
	return nil
}

// PanicPath aborts on its locked path; a panic is not a return: clean.
func PanicPath(t *Tree, bad bool) {
	t.mu.Lock()
	if bad {
		panic("invariant broken")
	}
	t.mu.Unlock()
}

// WaitLocked holds a read lock across a select: clean.
func WaitLocked(t *Tree, ch chan struct{}) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	select {
	case <-ch:
	default:
	}
}

// Spawn's goroutine body is analyzed as its own function, and the
// WaitGroup joins it: clean.
func Spawn(t *Tree, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		t.mu.Lock()
		defer t.mu.Unlock()
	}()
}

// ClosureUnlock releases via a deferred closure: clean.
func ClosureUnlock(t *Tree) {
	t.mu.Lock()
	defer func() {
		t.mu.Unlock()
	}()
}
