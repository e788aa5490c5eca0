// Package pager is the fixture counterpart of the real pager package:
// just enough surface for the lockorder, droppederr and clean fixtures.
// The analyzers match it by package and type names, exactly as they
// match the real one.
package pager

import "sync"

// PageID identifies a fixture page.
type PageID uint32

// Page is a fixture page buffer.
type Page [64]byte

// Pager is the fixture page store interface.
type Pager interface {
	Read(id PageID, p *Page) error
	Close() error
}

// Store carries an exported mutex so the lockorder fixture can take a
// pager-level (level 3) lock.
type Store struct {
	Mu sync.Mutex
}

// Tracked carries a mutex in a package named pager, so atomicmix's
// annotation requirement applies: every field must declare its
// discipline.
type Tracked struct {
	mu    sync.Mutex
	pages int  // guarded by mu
	dirty bool // want "field dirty of Tracked needs a concurrency annotation"
}

// bump keeps Tracked's fields referenced.
func (t *Tracked) bump() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pages++
	t.dirty = true
}
