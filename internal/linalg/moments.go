package linalg

import "vitri/internal/vec"

// Moments holds the first two raw moments of a point set as running sums:
// the count, Σx, and the upper triangle of Σx·xᵀ. They are enough to fit
// the first principal component (FirstPC) without another pass over the
// points, and they update in O(dim²/2) per point as points arrive (Add)
// and leave (Sub), which is how the index tracks principal-direction
// drift (§6.3.3).
type Moments struct {
	n   int
	sum vec.Vector
	// outer is the upper triangle of Σx·xᵀ packed row by row: row i holds
	// columns i..dim-1, so it starts at offset i·dim − i·(i−1)/2.
	outer []float64
}

// NewMoments returns empty moments over dim-dimensional points.
func NewMoments(dim int) *Moments {
	return &Moments{sum: make(vec.Vector, dim), outer: make([]float64, dim*(dim+1)/2)}
}

// Add folds a point into the sums.
func (m *Moments) Add(p vec.Vector) {
	m.n++
	m.fold(p, 1)
}

// Sub removes a point previously added. The sums are exact only up to
// rounding: subtracting what Add added leaves a residue of the order of
// the sums' own rounding error.
func (m *Moments) Sub(p vec.Vector) {
	m.n--
	m.fold(p, -1)
}

// fold adds sign·p to the sums (sign is ±1, so sign·v is exact). The
// inner loop is the moment pass's hot spot (dim²/2 updates per point) and
// is unrolled four-wide: one element per iteration leaves it bound by
// loop overhead, whose cost swings by a fifth with where the linker
// happens to place the loop. Every element still receives the same
// single product in the same order, so the sums do not depend on the
// unrolling.
func (m *Moments) fold(p vec.Vector, sign float64) {
	outer := m.outer
	for i, x := range p {
		v := float64(sign * x)
		m.sum[i] += v
		q := p[i:]
		row := outer[:len(q)]
		outer = outer[len(q):]
		j := 0
		for ; j+4 <= len(q); j += 4 {
			r, s := row[j:j+4:j+4], q[j:j+4:j+4]
			r[0] += float64(v * s[0])
			r[1] += float64(v * s[1])
			r[2] += float64(v * s[2])
			r[3] += float64(v * s[3])
		}
		for ; j < len(q); j++ {
			row[j] += float64(v * q[j])
		}
	}
}

// Count returns the number of points in the sums.
func (m *Moments) Count() int { return m.n }

// Mean returns the mean point, or nil when the sums are empty.
func (m *Moments) Mean() vec.Vector {
	if m.n == 0 {
		return nil
	}
	return vec.Scale(m.sum, 1/float64(m.n))
}

// covariance returns the population covariance Σx·xᵀ/n − mean·meanᵀ, or
// nil when the sums are empty.
func (m *Moments) covariance() *Sym {
	if m.n == 0 {
		return nil
	}
	dim := len(m.sum)
	n := float64(m.n)
	cov := NewSym(dim)
	k := 0
	for i := 0; i < dim; i++ {
		mi := m.sum[i] / n
		for j := i; j < dim; j++ {
			mj := m.sum[j] / n
			cov.Set(i, j, m.outer[k]/n-float64(mi*mj))
			k++
		}
	}
	return cov
}

// FirstPC returns the first principal component Φ1 of the summed points
// as a unit vector, or nil with fewer than two points (no spread, so no
// direction). Only the dominant direction is needed, so it runs power
// iteration rather than a full eigendecomposition. The result is a pure
// function of the sums: equal sums give bit-identical directions.
func (m *Moments) FirstPC() vec.Vector {
	if m.n < 2 {
		return nil
	}
	return FirstEigenvector(m.covariance(), 0, 0)
}
