// Package cluster seeds hot-loop allocations through the imported vec
// helpers, the cross-package direction of the hotalloc rule.
package cluster

import vec "fixture/hotvec"

// Recenter rebuilds centers with allocating calls inside nested loops.
func Recenter(points []vec.Vector, assign []int, k int) []vec.Vector {
	centers := make([]vec.Vector, k)
	for c := 0; c < k; c++ {
		centers[c] = make(vec.Vector, len(points[0]))
		for i, p := range points {
			if assign[i] != c {
				continue
			}
			centers[c] = vec.Add(centers[c], p) // want "vec.Add allocates on every iteration"
		}
		centers[c] = vec.Scale(centers[c], 0.5) // want "vec.Scale allocates on every iteration"
	}
	return centers
}

// Spread clones every point inside a plain for loop.
func Spread(points []vec.Vector) []vec.Vector {
	out := make([]vec.Vector, len(points))
	for i := 0; i < len(points); i++ {
		out[i] = vec.Clone(points[i]) // want "vec.Clone allocates on every iteration"
	}
	return out
}

// Dispersion measures every point through an allocated difference vector:
// an allocating helper nested as an argument is still an allocation per
// iteration.
func Dispersion(points []vec.Vector, c vec.Vector) float64 {
	var s float64
	for _, p := range points {
		d := vec.Sub(p, c) // want "vec.Sub allocates on every iteration"
		s += d[0] * d[0]
	}
	return s
}

// Seat stores a clone of every point, the helper spelled as a call
// argument.
func Seat(rows [][]float64, points []vec.Vector) {
	for i, p := range points {
		copy(rows[i], vec.Clone(p)) // want "vec.Clone allocates on every iteration"
	}
}

// Delta uses Sub once per call, outside any loop: not flagged.
func Delta(a, b vec.Vector) vec.Vector {
	return vec.Sub(a, b)
}

// Accumulate is the blessed in-place idiom.
func Accumulate(dst vec.Vector, points []vec.Vector) {
	for _, p := range points {
		vec.AddInPlace(dst, p)
	}
}
