// Package pager provides the 4 KiB page-storage substrate beneath the
// B+-tree: an in-memory store, a file-backed store and a fault-injection
// wrapper. Every implementation counts the page reads and writes it
// serves; the B+-tree additionally counts each node read into the
// caller's ScanStats, which is how the experiments report I/O cost (the
// paper's Sun E420 page accesses are reproduced as counts, not
// milliseconds).
package pager

import (
	"errors"
	"fmt"
	"sync"
)

// PageSize is the fixed page size in bytes, matching the paper's 4K pages.
const PageSize = 4096

// PageID identifies a page within a store. IDs are dense, starting at 0.
type PageID uint32

// InvalidPage is a sentinel for "no page" (e.g. a leaf with no successor).
const InvalidPage = PageID(^uint32(0))

// Page is one fixed-size page buffer.
type Page [PageSize]byte

// Stats counts physical page operations.
type Stats struct {
	Reads  uint64
	Writes uint64
	Allocs uint64
}

// ScanStats accumulates the physical page reads attributable to one
// logical operation (a single tree scan, or one KNN query). Unlike the
// pager-wide Stats counters — which are shared by every caller and can
// only be diffed, mis-attributing I/O as soon as two operations overlap —
// a ScanStats value is owned by exactly one operation and is therefore
// exact under any concurrency.
type ScanStats struct {
	Reads uint64
}

// Pager is the minimal page-store interface the B+-tree builds on.
type Pager interface {
	// Alloc reserves a new zeroed page and returns its ID.
	Alloc() (PageID, error)
	// Read copies page id into p.
	Read(id PageID, p *Page) error
	// Write copies p into page id.
	Write(id PageID, p *Page) error
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Stats returns a snapshot of the physical I/O counters.
	Stats() Stats
	// Close releases underlying resources.
	Close() error
}

// ErrPageOutOfRange is returned for reads/writes beyond the allocated
// range.
var ErrPageOutOfRange = errors.New("pager: page id out of range")

// ErrClosed is returned for operations on a closed pager.
var ErrClosed = errors.New("pager: closed")

// Mem is an in-memory Pager. The zero value is ready to use.
type Mem struct {
	mu     sync.Mutex
	pages  []*Page // guarded by mu
	stats  Stats   // guarded by mu
	closed bool    // guarded by mu
}

// NewMem returns an empty in-memory pager.
func NewMem() *Mem { return &Mem{} }

// Alloc implements Pager.
func (m *Mem) Alloc() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrClosed
	}
	m.pages = append(m.pages, new(Page))
	m.stats.Allocs++
	return PageID(len(m.pages) - 1), nil
}

// Read implements Pager.
func (m *Mem) Read(id PageID, p *Page) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: read %d of %d", ErrPageOutOfRange, id, len(m.pages))
	}
	*p = *m.pages[id]
	m.stats.Reads++
	return nil
}

// Write implements Pager.
func (m *Mem) Write(id PageID, p *Page) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: write %d of %d", ErrPageOutOfRange, id, len(m.pages))
	}
	*m.pages[id] = *p
	m.stats.Writes++
	return nil
}

// NumPages implements Pager.
func (m *Mem) NumPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pages)
}

// Stats implements Pager.
func (m *Mem) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Close implements Pager.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.pages = nil
	return nil
}
