package linalg

import (
	"math"
	"math/rand"
	"testing"

	"vitri/internal/vec"
)

func TestSymSetAtMirrors(t *testing.T) {
	m := NewSym(3)
	m.Set(0, 2, 5)
	if m.At(2, 0) != 5 || m.At(0, 2) != 5 {
		t.Fatalf("Set did not mirror: %v %v", m.At(0, 2), m.At(2, 0))
	}
}

func TestNewSymPanicsOnBadOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSym(0)
}

func TestMulVec(t *testing.T) {
	m := NewSym(2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 1, 3)
	got := m.MulVec([]float64{1, 2})
	if got[0] != 4 || got[1] != 7 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Points on a line y = 2x: covariance [[var, 2var],[2var, 4var]].
	pts := []vec.Vector{{-1, -2}, {0, 0}, {1, 2}}
	cov, mean := Covariance(pts)
	if !vec.ApproxEqual(mean, vec.Vector{0, 0}, 1e-12) {
		t.Fatalf("mean = %v", mean)
	}
	wantVar := 2.0 / 3.0
	if math.Abs(cov.At(0, 0)-wantVar) > 1e-12 {
		t.Errorf("cov00 = %v want %v", cov.At(0, 0), wantVar)
	}
	if math.Abs(cov.At(0, 1)-2*wantVar) > 1e-12 {
		t.Errorf("cov01 = %v want %v", cov.At(0, 1), 2*wantVar)
	}
	if math.Abs(cov.At(1, 1)-4*wantVar) > 1e-12 {
		t.Errorf("cov11 = %v want %v", cov.At(1, 1), 4*wantVar)
	}
}

func TestCovarianceSinglePoint(t *testing.T) {
	cov, mean := Covariance([]vec.Vector{{3, 4}})
	if !vec.Equal(mean, vec.Vector{3, 4}) {
		t.Fatalf("mean = %v", mean)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if cov.At(i, j) != 0 {
				t.Fatalf("single-point covariance not zero")
			}
		}
	}
}

func TestEigenDiagonal(t *testing.T) {
	m := NewSym(3)
	m.Set(0, 0, 1)
	m.Set(1, 1, 5)
	m.Set(2, 2, 3)
	e := EigenSym(m)
	want := []float64{5, 3, 1}
	for i, w := range want {
		if math.Abs(e.Values[i]-w) > 1e-10 {
			t.Errorf("value[%d] = %v want %v", i, e.Values[i], w)
		}
	}
}

func TestEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1 with vectors (1,1)/√2, (1,-1)/√2.
	m := NewSym(2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 1, 2)
	e := EigenSym(m)
	if math.Abs(e.Values[0]-3) > 1e-10 || math.Abs(e.Values[1]-1) > 1e-10 {
		t.Fatalf("values = %v", e.Values)
	}
	v0 := e.Vectors[0]
	if math.Abs(math.Abs(v0[0])-1/math.Sqrt2) > 1e-10 || math.Abs(v0[0]-v0[1]) > 1e-10 {
		t.Errorf("first eigenvector = %v", v0)
	}
}

// Property: for random symmetric matrices, A v = λ v for every eigenpair,
// eigenvectors are orthonormal, and the trace equals the eigenvalue sum.
func TestEigenRandomProperties(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 2 + r.Intn(24)
		m := NewSym(n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				m.Set(i, j, r.NormFloat64())
			}
		}
		e := EigenSym(m)
		var trace, sum float64
		for i := 0; i < n; i++ {
			trace += m.At(i, i)
			sum += e.Values[i]
		}
		if math.Abs(trace-sum) > 1e-8*(1+math.Abs(trace)) {
			t.Fatalf("n=%d trace %v != eigensum %v", n, trace, sum)
		}
		for i := 0; i < n; i++ {
			av := m.MulVec(e.Vectors[i])
			lv := vec.Scale(e.Vectors[i], e.Values[i])
			if !vec.ApproxEqual(av, lv, 1e-7) {
				t.Fatalf("n=%d eigenpair %d residual too large", n, i)
			}
			for j := i; j < n; j++ {
				dot := vec.Dot(e.Vectors[i], e.Vectors[j])
				want := 0.0
				if i == j {
					want = 1.0
				}
				if math.Abs(dot-want) > 1e-8 {
					t.Fatalf("n=%d vectors %d,%d not orthonormal: %v", n, i, j, dot)
				}
			}
		}
		// Descending order.
		for i := 1; i < n; i++ {
			if e.Values[i] > e.Values[i-1]+1e-12 {
				t.Fatalf("eigenvalues not sorted: %v", e.Values)
			}
		}
	}
}

func TestPCADominantDirection(t *testing.T) {
	// Points spread along direction (3,4)/5 with small orthogonal noise.
	r := rand.New(rand.NewSource(7))
	dir := vec.Vector{0.6, 0.8}
	orth := vec.Vector{-0.8, 0.6}
	var pts []vec.Vector
	for i := 0; i < 500; i++ {
		t1 := r.NormFloat64() * 10
		t2 := r.NormFloat64() * 0.1
		pts = append(pts, vec.Add(vec.Scale(dir, t1), vec.Scale(orth, t2)))
	}
	p := ComputePCA(pts)
	if ang := AngleBetween(p.First(), dir); ang > 0.02 {
		t.Fatalf("first PC off by %v rad: %v", ang, p.First())
	}
	if p.Variances[0] < 50*p.Variances[1] {
		t.Fatalf("variance ordering unexpected: %v", p.Variances)
	}
}

func TestVarianceSegment(t *testing.T) {
	pts := []vec.Vector{{-3, 0}, {5, 0}, {1, 0}, {0, 0}}
	p := ComputePCA(pts)
	seg := SegmentAlong(pts, p.First())
	// Φ1 is ±x axis; projections are ±the x coordinates.
	lo, hi := seg.Lo, seg.Hi
	if math.Abs(seg.Length()-8) > 1e-9 {
		t.Fatalf("segment [%v,%v] length %v, want 8", lo, hi, seg.Length())
	}
}

func TestAngleBetween(t *testing.T) {
	if a := AngleBetween(vec.Vector{1, 0}, vec.Vector{0, 1}); math.Abs(a-math.Pi/2) > 1e-12 {
		t.Errorf("perpendicular angle = %v", a)
	}
	if a := AngleBetween(vec.Vector{1, 0}, vec.Vector{-1, 0}); a > 1e-9 {
		t.Errorf("sign-flipped angle should be 0, got %v", a)
	}
	if a := AngleBetween(vec.Vector{0, 0}, vec.Vector{1, 0}); a != 0 {
		t.Errorf("zero vector angle = %v", a)
	}
}

func TestFirstEigenvectorMatchesJacobi(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		n := 2 + r.Intn(30)
		// Build an SPD matrix A = B·Bᵀ with a boosted dominant direction
		// so the top eigenvalue is well separated.
		m := NewSym(n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				m.Set(i, j, r.NormFloat64()*0.1)
			}
		}
		dom := make(vec.Vector, n)
		for i := range dom {
			dom[i] = r.NormFloat64()
		}
		vec.Normalize(dom)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				m.Set(i, j, m.At(i, j)+5*dom[i]*dom[j])
			}
		}
		// Symmetrize into PSD-ish by squaring: C = M·M (still symmetric,
		// same eigenvectors, squared eigenvalues -> all non-negative).
		c := NewSym(n)
		for i := 0; i < n; i++ {
			row := m.MulVec(colOf(m, i))
			for j := i; j < n; j++ {
				c.Set(i, j, row[j])
			}
		}
		want := EigenSym(c).Vectors[0]
		got := FirstEigenvector(c, 1e-12, 0)
		if ang := AngleBetween(want, got); ang > 1e-4 {
			t.Fatalf("n=%d power iteration off by %v rad", n, ang)
		}
	}
}

// colOf extracts column i of a symmetric matrix (equals row i).
func colOf(m *Sym, i int) vec.Vector {
	out := make(vec.Vector, m.N)
	for j := 0; j < m.N; j++ {
		out[j] = m.At(i, j)
	}
	return out
}

func TestFirstEigenvectorDegenerate(t *testing.T) {
	// Zero matrix: any unit vector is acceptable; must not hang or NaN.
	m := NewSym(4)
	v := FirstEigenvector(m, 0, 50)
	if len(v) != 4 || !vec.IsFinite(v) {
		t.Fatalf("degenerate result %v", v)
	}
	if math.Abs(vec.Norm(v)-1) > 1e-9 {
		t.Fatalf("not unit: %v", vec.Norm(v))
	}
}
