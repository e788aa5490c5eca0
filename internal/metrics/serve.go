package metrics

// Serving-side instrumentation: lock-free monotone counters and a
// fixed-bucket latency histogram. Both are safe for concurrent use and
// cheap enough to sit on every request path of the HTTP server
// (internal/server); the histogram takes one short mutex hold per
// observation, the counters are single atomic adds.

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram of float64 observations (for the
// server: request latencies in seconds). Bucket i counts observations
// v <= Bounds[i]; one implicit overflow bucket counts the rest.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1, last = overflow
	count  uint64
	sum    float64
	max    float64
}

// NewHistogram creates a histogram with the given ascending upper bounds.
// It panics on an empty or unsorted bounds slice — histogram shape is a
// compile-time decision, not an input.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("metrics: histogram bounds must be ascending")
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// LatencyBounds returns the server's default latency bucket bounds in
// seconds: 100µs to ~13s, doubling per bucket (18 buckets).
func LatencyBounds() []float64 {
	out := make([]float64, 18)
	b := 100e-6
	for i := range out {
		out[i] = b
		b *= 2
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Count  uint64
	Sum    float64
	Max    float64
	Bounds []float64
	Counts []uint64
}

// Snapshot returns a consistent copy of the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Count:  h.count,
		Sum:    h.sum,
		Max:    h.max,
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
	}
}

// Merge folds another snapshot into a copy of this one: counts and sums
// add, Max takes the larger. It exists to aggregate per-shard histograms
// recorded against identical bucket bounds into one distribution.
// Snapshots with mismatched bounds cannot be meaningfully merged; the
// one with more observations wins (defensive — every fsync histogram in
// the module shares LatencyBounds).
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	if s.Count == 0 {
		return o
	}
	if o.Count == 0 {
		return s
	}
	if len(s.Bounds) != len(o.Bounds) || len(s.Counts) != len(o.Counts) {
		if o.Count > s.Count {
			return o
		}
		return s
	}
	out := HistogramSnapshot{
		Count:  s.Count + o.Count,
		Sum:    s.Sum + o.Sum,
		Max:    s.Max,
		Bounds: append([]float64(nil), s.Bounds...),
		Counts: append([]uint64(nil), s.Counts...),
	}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	for i, c := range o.Counts {
		out.Counts[i] += c
	}
	return out
}

// MeanValue returns the mean observation (0 when empty).
func (s *HistogramSnapshot) MeanValue() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the p-quantile (0 < p <= 1) by linear interpolation
// within the bucket holding the target rank. Observations beyond the last
// bound are reported as the recorded maximum. Returns 0 when empty and
// NaN for p outside (0, 1].
func (s *HistogramSnapshot) Quantile(p float64) float64 {
	if p <= 0 || p > 1 {
		return math.NaN()
	}
	if s.Count == 0 {
		return 0
	}
	rank := float64(p * float64(s.Count))
	var seen float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := seen + float64(c)
		if rank <= next {
			if i == len(s.Bounds) {
				return s.Max
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen = next
	}
	return s.Max
}
