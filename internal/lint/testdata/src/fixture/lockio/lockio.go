// Package lockio seeds ranked locks held across fsync and locks held
// across blocking channel sends — the lock graph's I/O-latency
// findings — next to the leaf and try-send shapes it must accept.
package lockio

import (
	"errors"
	"sync"

	"fixture/vfs"
)

// engine carries a level-2 lock, ranked by type name exactly like the
// real tree's engine.
type engine struct {
	mu sync.Mutex
}

// SyncUnderLock fsyncs with the engine lock held: every waiter stalls on
// disk latency.
func (e *engine) SyncUnderLock(f vfs.File) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return f.Sync() // want "engine lock e.mu is held across vfs.File.Sync, which fsyncs"
}

// flush is the helper the interprocedural pass must see through.
func flush(f vfs.File) error {
	return f.Sync()
}

// SyncViaHelper reaches the fsync through a callee.
func (e *engine) SyncViaHelper(f vfs.File) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return flush(f) // want "engine lock e.mu is held across a call that can fsync (lockio.engine.SyncViaHelper → lockio.flush fsyncs via vfs.File.Sync"
}

// SendUnderLock blocks on a channel send with the engine lock held.
func (e *engine) SendUnderLock(ch chan int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ch <- 1 // want "lock e.mu is held across a blocking channel send"
}

// push is the sending helper behind SendViaHelper.
func push(ch chan int) {
	ch <- 1
}

// SendViaHelper reaches the blocking send through a callee.
func (e *engine) SendViaHelper(ch chan int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	push(ch) // want "lock e.mu is held across a call that can block on a channel send"
}

// each runs fn once per item, as a fan-out helper would.
func each(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// SyncInClosure reaches the fsync from a function literal that runs while
// the lock is held: the shape of a group commit fanned out before the
// lock is released.
func (e *engine) SyncInClosure(fs []vfs.File) error {
	errs := make([]error, len(fs))
	e.mu.Lock()
	each(len(fs), func(i int) {
		errs[i] = flush(fs[i]) // want "engine lock e.mu is held across a call that can fsync (lockio.engine.SyncInClosure → lockio.flush"
	})
	e.mu.Unlock()
	return errors.Join(errs...)
}

// TrySend never blocks — the default case makes the send conditional:
// clean.
func (e *engine) TrySend(ch chan int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case ch <- 1:
	default:
	}
}

// journalish is unranked: holding its lock across the fsync is the leaf
// flush-primitive pattern the check deliberately permits.
type journalish struct {
	mu sync.Mutex
}

// Flush is the permitted leaf shape: the lock IS the flush serialization.
func (j *journalish) Flush(f vfs.File) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return f.Sync()
}
