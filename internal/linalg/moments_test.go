package linalg

import (
	"math"
	"math/rand"
	"testing"

	"vitri/internal/vec"
)

// TestMomentsMatchCovariance checks the one-pass moments against the
// two-pass Covariance and the Jacobi PCA on a correlated cloud, across
// dimensionalities that exercise both the four-wide unroll and its tail,
// and that Sub undoes Add.
func TestMomentsMatchCovariance(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, dim := range []int{1, 3, 4, 7, 16} {
		dir := make(vec.Vector, dim)
		for j := range dir {
			dir[j] = r.NormFloat64()
		}
		vec.Normalize(dir)
		pts := make([]vec.Vector, 300)
		m := NewMoments(dim)
		for i := range pts {
			p := make(vec.Vector, dim)
			for j := range p {
				p[j] = 0.5 + r.NormFloat64()*0.01
			}
			vec.AXPY(p, r.NormFloat64()*0.3, dir)
			pts[i] = p
			m.Add(p)
		}
		want, mean := Covariance(pts)
		got := m.covariance()
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				if math.Abs(got.At(i, j)-want.At(i, j)) > 1e-12 {
					t.Fatalf("dim %d: cov(%d,%d) = %v, two-pass %v", dim, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
		if !vec.ApproxEqual(m.Mean(), mean, 1e-12) {
			t.Fatalf("dim %d: mean %v, want %v", dim, m.Mean(), mean)
		}
		if dim > 1 {
			if a := AngleBetween(m.FirstPC(), ComputePCA(pts).First()); a > 1e-4 {
				t.Fatalf("dim %d: Φ1 off the Jacobi one by %v rad", dim, a)
			}
		}
		// Removing the last 100 points leaves the moments of the first 200.
		first := NewMoments(dim)
		for _, p := range pts[:200] {
			first.Add(p)
		}
		for _, p := range pts[200:] {
			m.Sub(p)
		}
		if m.Count() != 200 {
			t.Fatalf("dim %d: count %d after Sub, want 200", dim, m.Count())
		}
		for i := range first.outer {
			if math.Abs(m.outer[i]-first.outer[i]) > 1e-9 {
				t.Fatalf("dim %d: outer[%d] = %v after Sub, want %v", dim, i, m.outer[i], first.outer[i])
			}
		}
	}
}

func TestMomentsFewPoints(t *testing.T) {
	m := NewMoments(3)
	if m.Mean() != nil || m.covariance() != nil || m.FirstPC() != nil {
		t.Fatal("empty moments report a mean, covariance or direction")
	}
	m.Add(vec.Vector{1, 2, 3})
	if m.FirstPC() != nil {
		t.Fatal("one point reports a principal direction")
	}
	if !vec.Equal(m.Mean(), vec.Vector{1, 2, 3}) {
		t.Fatalf("mean %v", m.Mean())
	}
}

func TestAngleBetweenExact(t *testing.T) {
	a := vec.Vector{0.3, -0.7, 0.1, 0.9}
	if got := AngleBetween(a, a); got != 0 {
		t.Fatalf("angle of a direction with itself = %v, want exactly 0", got)
	}
	if got := AngleBetween(a, vec.Scale(a, -2)); got != 0 {
		t.Fatalf("angle with a negated multiple = %v, want exactly 0", got)
	}
	// acos(cos θ) cannot resolve θ = 1e-9; the half-angle form can.
	b := vec.Vector{1, 1e-9}
	if got := AngleBetween(vec.Vector{1, 0}, b); math.Abs(got-1e-9) > 1e-18 {
		t.Fatalf("tiny angle = %v, want 1e-9", got)
	}
}
