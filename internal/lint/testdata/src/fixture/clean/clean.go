// Package clean must produce zero diagnostics: it composes the blessed
// idioms every analyzer checks for, so any finding here is an analyzer
// false positive.
package clean

import "sort"

// Catalog holds per-video scores.
type Catalog struct {
	scores map[int]float64
}

// Total folds the score map in sorted key order.
func (c *Catalog) Total() float64 {
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
