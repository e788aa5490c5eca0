// Package linalg implements the small dense linear-algebra substrate the
// ViTri index needs: symmetric matrices, covariance estimation (two-pass,
// or from running moments), a Jacobi eigensolver, power iteration, and
// principal component analysis with the paper's "variance segment"
// construct (Definition 1).
//
// The library is deliberately self-contained (stdlib only) and tuned for
// the moderate dimensionalities of image feature spaces (tens to a few
// hundred dimensions), where the O(n^3) Jacobi sweep is entirely adequate
// and numerically robust.
package linalg

import (
	"fmt"
	"math"

	"vitri/internal/vec"
)

// Sym is a dense symmetric n×n matrix stored in row-major full form.
// Only symmetric contents are meaningful; Set maintains the symmetry.
type Sym struct {
	N    int
	Data []float64 // len N*N, row-major
}

// NewSym returns a zero symmetric matrix of order n.
func NewSym(n int) *Sym {
	if n <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix order %d", n))
	}
	return &Sym{N: n, Data: make([]float64, n*n)}
}

// At returns element (i,j).
func (m *Sym) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i,j) and mirrors it to (j,i).
func (m *Sym) Set(i, j int, v float64) {
	m.Data[i*m.N+j] = v
	m.Data[j*m.N+i] = v
}

// Clone returns a deep copy of m.
func (m *Sym) Clone() *Sym {
	out := NewSym(m.N)
	copy(out.Data, m.Data)
	return out
}

// MulVec returns m·x.
func (m *Sym) MulVec(x []float64) []float64 {
	if len(x) != m.N {
		panic("linalg: MulVec dimension mismatch")
	}
	out := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		row := m.Data[i*m.N : (i+1)*m.N]
		var s float64
		for j, rv := range row {
			s += float64(rv * x[j])
		}
		out[i] = s
	}
	return out
}

// offDiagNorm returns the Frobenius norm of the strictly upper triangle,
// the Jacobi convergence criterion.
func (m *Sym) offDiagNorm() float64 {
	var s float64
	for i := 0; i < m.N; i++ {
		for j := i + 1; j < m.N; j++ {
			v := m.At(i, j)
			s += v * v
		}
	}
	return math.Sqrt(2 * s)
}

// Covariance estimates the sample covariance matrix of the given points
// around their mean. With fewer than two points the covariance is the zero
// matrix (there is no spread to measure). The divisor is len(points), i.e.
// the population form, matching the paper's σ definition.
func Covariance(points []vec.Vector) (*Sym, vec.Vector) {
	if len(points) == 0 {
		panic("linalg: Covariance of empty point set")
	}
	n := len(points[0])
	mean := vec.Mean(points)
	cov := NewSym(n)
	if len(points) < 2 {
		return cov, mean
	}
	inv := 1 / float64(len(points))
	d := make([]float64, n)
	for _, p := range points {
		if len(p) != n {
			panic("linalg: Covariance points have mixed dimensionality")
		}
		for i := range d {
			d[i] = p[i] - mean[i]
		}
		for i := 0; i < n; i++ {
			di := d[i]
			if di == 0 {
				continue
			}
			row := cov.Data[i*n : (i+1)*n]
			for j := i; j < n; j++ {
				row[j] += di * d[j]
			}
		}
	}
	// Scale and mirror the accumulated upper triangle.
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := cov.Data[i*n+j] * inv
			cov.Data[i*n+j] = v
			cov.Data[j*n+i] = v
		}
	}
	return cov, mean
}

// Eigen holds a full eigendecomposition of a symmetric matrix with
// eigenvalues sorted in descending order. Vectors[k] is the unit
// eigenvector for Values[k].
type Eigen struct {
	Values  []float64
	Vectors []vec.Vector
}

// maxJacobiSweeps bounds the cyclic Jacobi iteration; symmetric matrices of
// the orders we use converge in well under 20 sweeps.
const maxJacobiSweeps = 64

// EigenSym computes the eigendecomposition of symmetric matrix m using the
// cyclic Jacobi method. The input is not modified.
func EigenSym(m *Sym) Eigen {
	n := m.N
	a := m.Clone()
	// v accumulates rotations; starts as identity. v[i] is eigenvector i
	// stored as a column: we keep V as row-major with columns as vectors,
	// so v[r*n+c] is component r of eigenvector c.
	v := make([]float64, n*n)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}
	eps := 1e-14 * (1 + a.offDiagNorm())
	rotate := func(g, h float64, s, tau float64) (float64, float64) {
		return g - s*(h+g*tau), h + s*(g-h*tau)
	}
	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		if a.offDiagNorm() <= eps {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if apq == 0 {
					continue
				}
				app, aqq := a.At(p, p), a.At(q, q)
				theta := (aqq - app) / (2 * apq)
				// t = sgn(theta)/(|theta| + sqrt(theta^2+1)), the smaller
				// root, which keeps the rotation angle <= pi/4.
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				tau := s / (1 + c)
				a.Set(p, p, app-t*apq)
				a.Set(q, q, aqq+t*apq)
				a.Set(p, q, 0)
				for k := 0; k < n; k++ {
					if k == p || k == q {
						continue
					}
					akp, akq := rotate(a.At(k, p), a.At(k, q), s, tau)
					a.Set(k, p, akp)
					a.Set(k, q, akq)
				}
				// Accumulate rotation into v (columns p and q).
				for k := 0; k < n; k++ {
					vkp, vkq := rotate(v[k*n+p], v[k*n+q], s, tau)
					v[k*n+p] = vkp
					v[k*n+q] = vkq
				}
			}
		}
	}
	out := Eigen{
		Values:  make([]float64, n),
		Vectors: make([]vec.Vector, n),
	}
	for i := 0; i < n; i++ {
		out.Values[i] = a.At(i, i)
		ev := make(vec.Vector, n)
		for r := 0; r < n; r++ {
			ev[r] = v[r*n+i]
		}
		out.Vectors[i] = ev
	}
	// Sort by descending eigenvalue (insertion sort on small n).
	for i := 1; i < n; i++ {
		val, evec := out.Values[i], out.Vectors[i]
		j := i - 1
		for j >= 0 && out.Values[j] < val {
			out.Values[j+1], out.Vectors[j+1] = out.Values[j], out.Vectors[j]
			j--
		}
		out.Values[j+1], out.Vectors[j+1] = val, evec
	}
	return out
}
