package pager

import (
	"errors"
	"path/filepath"
	"testing"
)

// pagerContract runs the behaviour shared by every Pager implementation.
func pagerContract(t *testing.T, p Pager) {
	t.Helper()
	id0, err := p.Alloc()
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	id1, err := p.Alloc()
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if id0 == id1 {
		t.Fatal("Alloc returned duplicate ids")
	}
	if p.NumPages() != 2 {
		t.Fatalf("NumPages = %d", p.NumPages())
	}

	var w Page
	copy(w[:], "hello page zero")
	w[PageSize-1] = 0xAB
	if err := p.Write(id0, &w); err != nil {
		t.Fatalf("Write: %v", err)
	}
	var r Page
	if err := p.Read(id0, &r); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if r != w {
		t.Fatal("read back different content")
	}
	// Fresh page must be zeroed.
	if err := p.Read(id1, &r); err != nil {
		t.Fatalf("Read fresh: %v", err)
	}
	if r != (Page{}) {
		t.Fatal("fresh page not zeroed")
	}
	// Out-of-range access errors.
	if err := p.Read(99, &r); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("out-of-range read error = %v", err)
	}
	if err := p.Write(99, &w); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("out-of-range write error = %v", err)
	}
}

func TestMemContract(t *testing.T) {
	p := NewMem()
	defer p.Close()
	pagerContract(t, p)
	s := p.Stats()
	if s.Reads < 2 || s.Writes < 1 || s.Allocs != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMemClosed(t *testing.T) {
	p := NewMem()
	id, _ := p.Alloc()
	p.Close()
	var pg Page
	if err := p.Read(id, &pg); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if _, err := p.Alloc(); !errors.Is(err, ErrClosed) {
		t.Fatalf("alloc after close: %v", err)
	}
}

func TestFileContract(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	p, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pagerContract(t, p)
}

func TestFilePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	p, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := p.Alloc()
	var w Page
	copy(w[:], "persisted")
	if err := p.Write(id, &w); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.NumPages() != 1 {
		t.Fatalf("reopened NumPages = %d", p2.NumPages())
	}
	var r Page
	if err := p2.Read(id, &r); err != nil {
		t.Fatal(err)
	}
	if r != w {
		t.Fatal("persistence lost page content")
	}
}

func TestFileRejectsMisalignedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.db")
	p, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	// Truncate to a non-page-multiple size.
	if err := truncate(path, PageSize/2); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); err == nil {
		t.Fatal("expected error for misaligned file")
	}
}

func TestFaultyReadFailEvery(t *testing.T) {
	mem := NewMem()
	f := NewFaulty(mem, 1)
	f.ReadFailEvery = 3
	id, _ := f.Alloc()
	var p Page
	fails := 0
	for i := 0; i < 9; i++ {
		if err := f.Read(id, &p); errors.Is(err, ErrInjected) {
			fails++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if fails != 3 {
		t.Fatalf("expected 3 injected failures, got %d", fails)
	}
}

func TestFaultyCorruptReads(t *testing.T) {
	mem := NewMem()
	f := NewFaulty(mem, 2)
	f.ReadFailEvery = 1
	f.CorruptReads = true
	id, _ := f.Alloc()
	var w Page
	copy(w[:], "precious data")
	if err := f.Write(id, &w); err != nil {
		t.Fatal(err)
	}
	var r Page
	if err := f.Read(id, &r); err != nil {
		t.Fatalf("corrupting read should not error: %v", err)
	}
	if r == w {
		t.Fatal("page was not corrupted")
	}
}

func TestFaultyWriteFail(t *testing.T) {
	mem := NewMem()
	f := NewFaulty(mem, 3)
	f.WriteFailEvery = 2
	id, _ := f.Alloc()
	var p Page
	if err := f.Write(id, &p); err != nil {
		t.Fatalf("first write should pass: %v", err)
	}
	if err := f.Write(id, &p); !errors.Is(err, ErrInjected) {
		t.Fatalf("second write should fail: %v", err)
	}
}
