// Package clean must produce zero diagnostics: it composes the blessed
// idioms every analyzer checks for, so any finding here is an analyzer
// false positive.
package clean

import (
	"sort"
	"sync"

	"fixture/pager"
)

// Catalog pairs a mutex with the ordered-fold idiom.
type Catalog struct {
	mu     sync.RWMutex
	pg     pager.Pager
	scores map[int]float64
}

// Total folds the score map in sorted key order under a read lock.
func (c *Catalog) Total() float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	keys := make([]int, 0, len(c.scores))
	for k := range c.scores {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var total float64
	for _, k := range keys {
		total += c.scores[k]
	}
	return total
}

// Close releases the store, propagating its error.
func (c *Catalog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pg.Close()
}

// Add allocates a combined score vector. It shares its name with the vec
// helpers, but this package is outside hotalloc's scope — loop calls to
// it must not be flagged.
func Add(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// MergeScores calls the local Add in a loop; hotalloc only watches
// packages named vec and cluster, so this stays clean.
func MergeScores(rows [][]float64) []float64 {
	acc := make([]float64, len(rows[0]))
	for _, r := range rows {
		acc = Add(acc, r)
	}
	return acc
}
