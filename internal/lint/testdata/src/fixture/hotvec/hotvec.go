// Package vec mirrors the real vector package's allocating helpers and
// their in-place counterparts, seeding hot-loop calls the hotalloc
// analyzer must flag (package-name matching makes this fixture exercise
// the same rule as the real tree).
package vec

// Vector is a dense point.
type Vector = []float64

// Add returns a new vector a+b (allocates).
func Add(a, b Vector) Vector {
	out := make(Vector, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Sub returns a new vector a-b (allocates).
func Sub(a, b Vector) Vector {
	out := make(Vector, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Scale returns a new vector a*s (allocates).
func Scale(a Vector, s float64) Vector {
	out := make(Vector, len(a))
	for i := range a {
		out[i] = a[i] * s
	}
	return out
}

// Clone returns a copy of a (allocates).
func Clone(a Vector) Vector {
	out := make(Vector, len(a))
	copy(out, a)
	return out
}

// AddInPlace accumulates b into dst without allocating.
func AddInPlace(dst, b Vector) {
	for i := range dst {
		dst[i] += b[i]
	}
}

// Centroid folds points with the allocating helper inside a range loop.
func Centroid(points []Vector) Vector {
	sum := make(Vector, len(points[0]))
	for _, p := range points {
		sum = Add(sum, p) // want "vec.Add allocates on every iteration"
	}
	return Scale(sum, 1/float64(len(points))) // outside any loop: fine
}

// CentroidInPlace is the blessed idiom: accumulate into one buffer.
func CentroidInPlace(points []Vector) Vector {
	sum := make(Vector, len(points[0]))
	for _, p := range points {
		AddInPlace(sum, p)
	}
	return Scale(sum, 1/float64(len(points)))
}
