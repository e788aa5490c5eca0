package pager

import (
	"errors"
	"math/rand"
	"sync"
)

// ErrInjected is the error surfaced by the Faulty wrapper when a fault
// fires. Callers can match it with errors.Is.
var ErrInjected = errors.New("pager: injected fault")

// Faulty wraps a Pager and injects failures for testing the error paths of
// everything built on top. Faults are driven by a deterministic RNG plus
// optional per-operation countdowns.
type Faulty struct {
	mu    sync.Mutex
	under Pager      // immutable after NewFaulty
	rng   *rand.Rand // guarded by mu

	// ReadFailEvery / WriteFailEvery fail every k-th operation (0 = off).
	// Fault knobs are immutable once traffic flows: tests set them
	// between construction and first use.
	ReadFailEvery  int // immutable once in use
	WriteFailEvery int // immutable once in use
	// ReadFailProb / WriteFailProb fail with this probability (0 = off).
	ReadFailProb  float64 // immutable once in use
	WriteFailProb float64 // immutable once in use
	// CorruptReads flips a byte in the page instead of failing the read.
	CorruptReads bool // immutable once in use

	reads, writes int // guarded by mu
}

// NewFaulty wraps under; seed makes the probabilistic faults reproducible.
func NewFaulty(under Pager, seed int64) *Faulty {
	return &Faulty{under: under, rng: rand.New(rand.NewSource(seed))}
}

// Alloc implements Pager.
func (f *Faulty) Alloc() (PageID, error) { return f.under.Alloc() }

// Read implements Pager, possibly failing or corrupting the result.
func (f *Faulty) Read(id PageID, p *Page) error {
	f.mu.Lock()
	f.reads++
	fail := (f.ReadFailEvery > 0 && f.reads%f.ReadFailEvery == 0) ||
		(f.ReadFailProb > 0 && f.rng.Float64() < f.ReadFailProb)
	corrupt := fail && f.CorruptReads
	var corruptAt int
	if corrupt {
		corruptAt = f.rng.Intn(PageSize)
	}
	f.mu.Unlock()
	if fail && !corrupt {
		return ErrInjected
	}
	if err := f.under.Read(id, p); err != nil {
		return err
	}
	if corrupt {
		p[corruptAt] ^= 0xFF
	}
	return nil
}

// Write implements Pager, possibly failing.
func (f *Faulty) Write(id PageID, p *Page) error {
	f.mu.Lock()
	f.writes++
	fail := (f.WriteFailEvery > 0 && f.writes%f.WriteFailEvery == 0) ||
		(f.WriteFailProb > 0 && f.rng.Float64() < f.WriteFailProb)
	f.mu.Unlock()
	if fail {
		return ErrInjected
	}
	return f.under.Write(id, p)
}

// NumPages implements Pager.
func (f *Faulty) NumPages() int { return f.under.NumPages() }

// Stats implements Pager.
func (f *Faulty) Stats() Stats { return f.under.Stats() }

// Close implements Pager.
func (f *Faulty) Close() error { return f.under.Close() }
