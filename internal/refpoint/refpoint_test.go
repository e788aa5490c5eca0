package refpoint

import (
	"math"
	"math/rand"
	"testing"

	"vitri/internal/vec"
)

func randomCloud(r *rand.Rand, n, dim int, stretch float64) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		p := make(vec.Vector, dim)
		for j := range p {
			p[j] = r.NormFloat64() * 0.05
		}
		// Stretch along the first axis to create a dominant direction.
		p[0] += r.NormFloat64() * stretch
		pts[i] = p
	}
	return pts
}

func TestSpaceCenter(t *testing.T) {
	pts := []vec.Vector{{0.1, 0.2, 0.3}}
	tr, err := New(Config{Kind: SpaceCenter, SpaceLo: 0, SpaceHi: 1}, pts)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(tr.Ref(), vec.Vector{0.5, 0.5, 0.5}) {
		t.Fatalf("ref = %v", tr.Ref())
	}
	if tr.Kind() != SpaceCenter || tr.Dim() != 3 {
		t.Fatalf("kind/dim wrong: %v %d", tr.Kind(), tr.Dim())
	}
}

func TestSpaceCenterBadBounds(t *testing.T) {
	if _, err := New(Config{Kind: SpaceCenter, SpaceLo: 1, SpaceHi: 0}, []vec.Vector{{1}}); err == nil {
		t.Fatal("expected error")
	}
}

func TestDataCenter(t *testing.T) {
	pts := []vec.Vector{{0, 0}, {2, 4}}
	tr, err := New(Config{Kind: DataCenter}, pts)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.ApproxEqual(tr.Ref(), vec.Vector{1, 2}, 1e-12) {
		t.Fatalf("ref = %v", tr.Ref())
	}
}

func TestNewRequiresPoints(t *testing.T) {
	for _, k := range []Kind{SpaceCenter, DataCenter, Optimal} {
		if _, err := New(Config{Kind: k, SpaceLo: 0, SpaceHi: 1}, nil); err == nil {
			t.Fatalf("kind %v: expected error with no points", k)
		}
	}
}

func TestOptimalOutsideVarianceSegment(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := randomCloud(r, 500, 8, 1.0)
	tr, err := New(Config{Kind: Optimal}, pts)
	if err != nil {
		t.Fatal(err)
	}
	// The reference's projection onto Φ1 must lie outside [Lo, Hi].
	proj := vec.Dot(tr.Ref(), tr.FirstPC())
	seg := tr.segment
	if proj >= seg.Lo && proj <= seg.Hi {
		t.Fatalf("reference projection %v inside segment [%v, %v]", proj, seg.Lo, seg.Hi)
	}
}

func TestKeyLowerBoundsDistance(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := randomCloud(r, 300, 16, 0.5)
	for _, k := range []Kind{SpaceCenter, DataCenter, Optimal} {
		tr, err := New(Config{Kind: k, SpaceLo: -2, SpaceHi: 2}, pts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			a := pts[r.Intn(len(pts))]
			b := pts[r.Intn(len(pts))]
			if math.Abs(tr.Key(a)-tr.Key(b)) > vec.Dist(a, b)+1e-9 {
				t.Fatalf("kind %v: key difference exceeds distance", k)
			}
		}
	}
}

// keyVariance computes the variance of pairwise |key(a)-key(b)| over a
// sample — the quantity Theorem 1 says the optimal reference maximizes.
func keyVariance(tr *Transform, pts []vec.Vector) float64 {
	keys := make([]float64, len(pts))
	for i, p := range pts {
		keys[i] = tr.Key(p)
	}
	var sum, sum2 float64
	cnt := 0
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			d := math.Abs(keys[i] - keys[j])
			sum += d
			sum2 += d * d
			cnt++
		}
	}
	mean := sum / float64(cnt)
	return sum2/float64(cnt) - mean*mean
}

func TestOptimalPreservesMoreVariance(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	// Elongated correlated cloud NOT aligned with any axis, shifted away
	// from the space center so the comparison is meaningful.
	dim := 12
	dir := make(vec.Vector, dim)
	for i := range dir {
		dir[i] = r.NormFloat64()
	}
	vec.Normalize(dir)
	pts := make([]vec.Vector, 400)
	for i := range pts {
		p := make(vec.Vector, dim)
		for j := range p {
			p[j] = 0.5 + r.NormFloat64()*0.01
		}
		vec.AXPY(p, r.NormFloat64()*0.3, dir)
		pts[i] = p
	}
	opt, err := New(Config{Kind: Optimal}, pts)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := New(Config{Kind: DataCenter}, pts)
	if err != nil {
		t.Fatal(err)
	}
	vOpt, vDC := keyVariance(opt, pts), keyVariance(dc, pts)
	if vOpt <= vDC {
		t.Fatalf("optimal key variance %v not above data-center %v", vOpt, vDC)
	}
}

func TestOptimalDegenerateData(t *testing.T) {
	// All points identical: zero-length segment must still give a usable
	// transform.
	pts := []vec.Vector{{1, 1}, {1, 1}, {1, 1}}
	tr, err := New(Config{Kind: Optimal}, pts)
	if err != nil {
		t.Fatal(err)
	}
	k := tr.Key(pts[0])
	if math.IsNaN(k) || math.IsInf(k, 0) {
		t.Fatalf("degenerate key = %v", k)
	}
	if k == 0 {
		t.Fatal("reference coincides with the data")
	}
}

func TestKeyIsDistanceToRef(t *testing.T) {
	pts := []vec.Vector{{0, 0}, {1, 0}, {0, 1}}
	tr, err := New(Config{Kind: DataCenter}, pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if got, want := tr.Key(p), vec.Dist(p, tr.Ref()); got != want {
			t.Fatalf("Key = %v want %v", got, want)
		}
	}
}
