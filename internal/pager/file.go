package pager

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// File is an os.File-backed Pager. Pages live at offset id×PageSize.
type File struct {
	mu     sync.Mutex
	f      *os.File // guarded by mu
	pages  int      // guarded by mu
	stats  Stats    // guarded by mu
	closed bool     // guarded by mu
}

// OpenFile opens (or creates) a page file at path. An existing file must
// be a whole number of pages.
func OpenFile(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pager: stat %s: %w", path, err)
	}
	if info.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("pager: %s size %d is not page-aligned", path, info.Size())
	}
	return &File{f: f, pages: int(info.Size() / PageSize)}, nil
}

// Alloc implements Pager.
func (fp *File) Alloc() (PageID, error) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.closed {
		return 0, ErrClosed
	}
	id := PageID(fp.pages)
	var zero Page
	if _, err := fp.f.WriteAt(zero[:], int64(id)*PageSize); err != nil {
		return 0, fmt.Errorf("pager: alloc page %d: %w", id, err)
	}
	fp.pages++
	fp.stats.Allocs++
	return id, nil
}

// Read implements Pager.
func (fp *File) Read(id PageID, p *Page) error {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.closed {
		return ErrClosed
	}
	if int(id) >= fp.pages {
		return fmt.Errorf("%w: read %d of %d", ErrPageOutOfRange, id, fp.pages)
	}
	if _, err := fp.f.ReadAt(p[:], int64(id)*PageSize); err != nil && err != io.EOF {
		return fmt.Errorf("pager: read page %d: %w", id, err)
	}
	fp.stats.Reads++
	return nil
}

// Write implements Pager.
func (fp *File) Write(id PageID, p *Page) error {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.closed {
		return ErrClosed
	}
	if int(id) >= fp.pages {
		return fmt.Errorf("%w: write %d of %d", ErrPageOutOfRange, id, fp.pages)
	}
	if _, err := fp.f.WriteAt(p[:], int64(id)*PageSize); err != nil {
		return fmt.Errorf("pager: write page %d: %w", id, err)
	}
	fp.stats.Writes++
	return nil
}

// NumPages implements Pager.
func (fp *File) NumPages() int {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.pages
}

// Stats implements Pager.
func (fp *File) Stats() Stats {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.stats
}

// Sync flushes the file to stable storage.
func (fp *File) Sync() error {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.closed {
		return ErrClosed
	}
	//lint:ignore lockorder Sync IS this pager's flush primitive: the mutex orders it against concurrent writes, and callers sync off the hot path
	return fp.f.Sync()
}

// Close implements Pager.
func (fp *File) Close() error {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.closed {
		return nil
	}
	fp.closed = true
	return fp.f.Close()
}
