package main

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"vitri"
)

// minBeyond is how many samples must lie beyond a reported percentile;
// a tail estimated from fewer is noise, so the run fails instead.
const minBeyond = 10

// errTooFewSamples reports a percentile asked of a sample too small to
// support it.
var errTooFewSamples = errors.New("too few samples beyond the percentile")

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// the samples xs. It refuses when fewer than minBeyond samples lie beyond
// the rank: a tail read from fewer is noise.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 || p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v of %d samples: %w", p, len(xs), errTooFewSamples)
	}
	if beyond := len(xs) - rankOfPercentile(len(xs), p); beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples leaves %d beyond: %w", p, len(xs), beyond, errTooFewSamples)
	}
	return sortedCopy(xs)[rankOfPercentile(len(xs), p)-1], nil
}

// rankOfPercentile is the 1-based nearest rank of the p-th percentile
// among n values.
func rankOfPercentile(n int, p float64) int {
	return int(math.Ceil(p / 100 * float64(n)))
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the default "exclusive" method), which is what the acceptance
// procedure computes spreads from. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// FNV-1a, 64 bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// matchDigest folds a ranking into one word: FNV-1a over the video id and
// the similarity's bit pattern of every match, in rank order. Rankings
// are a pure function of (query, corpus), so equal digests mean equal
// results bit for bit.
func matchDigest(ms []vitri.Match) uint64 {
	h := uint64(fnvOffset)
	for _, m := range ms {
		h = fnvMix(h, uint64(int64(m.VideoID)))
		h = fnvMix(h, math.Float64bits(m.Similarity))
	}
	return h
}

// foldDigests combines per-operation digests, in operation order, into
// the workload's results_digest.
func foldDigests(ds []uint64) uint64 {
	h := uint64(fnvOffset)
	for _, d := range ds {
		h = fnvMix(h, d)
	}
	return h
}
