// Package vec provides dense float64 vector primitives used throughout the
// ViTri library: Euclidean geometry, accumulation with compensated
// summation, and small conveniences for building feature spaces.
//
// Vectors are plain []float64 slices so callers can interoperate with the
// rest of the library without wrapper types. All functions that take two
// vectors require equal lengths and panic otherwise; length mismatches are
// programming errors, not runtime conditions.
package vec

import (
	"fmt"
	"math"
)

// Vector is a dense point in n-dimensional Euclidean space.
type Vector = []float64

// checkLen panics if a and b have different dimensionality.
func checkLen(a, b Vector) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dimension mismatch %d != %d", len(a), len(b)))
	}
}

// Dist returns the Euclidean (L2) distance between a and b.
func Dist(a, b Vector) float64 {
	return math.Sqrt(Dist2(a, b))
}

// Dist2 returns the squared Euclidean distance between a and b. It avoids
// the square root for callers that only compare distances.
//
// The loop is 4-way unrolled with the bounds checks hoisted (the b =
// b[:len(a)] reslice proves every b index in range), but keeps a single
// accumulator updated strictly left to right, so the result is
// bit-identical to the naive sequential fold — summaries must not change
// with the kernel. Each product is written float64(x*y): the conversion
// rounds it, so no architecture fuses it into the sum (fma_test.go), the
// convention for every product that feeds a sum in this module.
func Dist2(a, b Vector) float64 {
	checkLen(a, b)
	if len(a) == 0 {
		return 0
	}
	b = b[:len(a)]
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s += float64(d0 * d0)
		s += float64(d1 * d1)
		s += float64(d2 * d2)
		s += float64(d3 * d3)
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}

// ArgminDist2 is the one-to-many assignment kernel of the Lloyd
// iteration: it returns the index of the row of m closest to p in squared
// Euclidean distance, and that distance. Rows are scanned in order with a
// strict less-than update, so the winner is exactly the one a sequential
// "loop over centers, keep the first minimum" would pick. m must have at
// least one row and p must have m.Cols elements.
func ArgminDist2(p Vector, m Matrix) (best int, bestD float64) {
	if m.Rows == 0 {
		panic("vec: ArgminDist2 over an empty matrix")
	}
	best, bestD = 0, math.Inf(1)
	for c := 0; c < m.Rows; c++ {
		if d := Dist2(p, m.Row(c)); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// Dot returns the inner product of a and b.
func Dot(a, b Vector) float64 {
	checkLen(a, b)
	var s float64
	for i, av := range a {
		s += float64(av * b[i])
	}
	return s
}

// Norm returns the Euclidean norm of a.
func Norm(a Vector) float64 {
	return math.Sqrt(Dot(a, a))
}

// Clone returns an independent copy of a.
func Clone(a Vector) Vector {
	out := make(Vector, len(a))
	copy(out, a)
	return out
}

// Add returns a new vector a+b.
func Add(a, b Vector) Vector {
	checkLen(a, b)
	out := make(Vector, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Sub returns a new vector a-b.
func Sub(a, b Vector) Vector {
	checkLen(a, b)
	out := make(Vector, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Scale returns a new vector a*s.
func Scale(a Vector, s float64) Vector {
	out := make(Vector, len(a))
	for i := range a {
		out[i] = a[i] * s
	}
	return out
}

// AddInPlace accumulates b into dst element-wise.
func AddInPlace(dst, b Vector) {
	checkLen(dst, b)
	for i := range dst {
		dst[i] += b[i]
	}
}

// ScaleInPlace multiplies every element of dst by s.
func ScaleInPlace(dst Vector, s float64) {
	for i := range dst {
		dst[i] *= s
	}
}

// AXPY computes dst += alpha*x without allocating.
func AXPY(dst Vector, alpha float64, x Vector) {
	checkLen(dst, x)
	for i := range dst {
		dst[i] += float64(alpha * x[i])
	}
}

// Normalize scales a in place to unit Euclidean norm. A zero vector is left
// unchanged and reported via the return value.
func Normalize(a Vector) bool {
	n := Norm(a)
	if n == 0 {
		return false
	}
	ScaleInPlace(a, 1/n)
	return true
}

// Mean returns the centroid of the given points. It panics on an empty set.
func Mean(points []Vector) Vector {
	if len(points) == 0 {
		panic("vec: Mean of empty point set")
	}
	out := make(Vector, len(points[0]))
	for _, p := range points {
		AddInPlace(out, p)
	}
	ScaleInPlace(out, 1/float64(len(points)))
	return out
}

// Equal reports whether a and b are identical element-wise.
func Equal(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether a and b agree element-wise within tol.
func ApproxEqual(a, b Vector, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// Sum returns the compensated (Kahan) sum of the elements of a. Feature
// histograms are normalized by total pixel count, so precise sums matter
// when validating them.
func Sum(a Vector) float64 {
	var sum, comp float64
	for _, v := range a {
		y := v - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// MinMax returns the smallest and largest element of a. It panics on an
// empty vector.
func MinMax(a Vector) (min, max float64) {
	if len(a) == 0 {
		panic("vec: MinMax of empty vector")
	}
	min, max = a[0], a[0]
	for _, v := range a[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// IsFinite reports whether every element of a is finite (no NaN or Inf).
func IsFinite(a Vector) bool {
	for _, v := range a {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
