package baseline

import (
	"math"
	"math/rand"
	"testing"

	"vitri/internal/vec"
)

// The blocked kernel must agree with the naive reference everywhere,
// including sizes that are not multiples of the tile edge and the empty /
// single-frame degenerate shapes.
func TestExactSimilarityBlockedMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	mk := func(n, dim int) []vec.Vector {
		out := make([]vec.Vector, n)
		for i := range out {
			p := make(vec.Vector, dim)
			for j := range p {
				p[j] = r.Float64()
			}
			out[i] = p
		}
		return out
	}
	sizes := []struct{ nx, ny int }{
		{0, 10}, {10, 0}, {1, 1}, {3, 5},
		{simBlock, simBlock}, {simBlock - 1, simBlock + 1},
		{2*simBlock + 7, simBlock / 2}, {5, 3 * simBlock},
	}
	for _, eps := range []float64{0.05, 0.3, 1.2} {
		for _, sz := range sizes {
			x, y := mk(sz.nx, 8), mk(sz.ny, 8)
			got := ExactSimilarity(x, y, eps)
			want := exactSimilarityNaive(x, y, eps)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("eps=%v |x|=%d |y|=%d: blocked %v, naive %v", eps, sz.nx, sz.ny, got, want)
			}
		}
	}
}

// Dense all-similar and sparse none-similar inputs exercise the
// both-marked skip path and the never-marked path respectively.
func TestExactSimilarityBlockedExtremes(t *testing.T) {
	n := simBlock + 9
	same := make([]vec.Vector, n)
	far := make([]vec.Vector, n)
	for i := range same {
		same[i] = vec.Vector{0.5, 0.5}
		far[i] = vec.Vector{100 + float64(i)*10, 0}
	}
	if got := ExactSimilarity(same, same, 0.1); got != 1 {
		t.Fatalf("all-similar: %v, want 1", got)
	}
	if got := ExactSimilarity(same, far, 0.1); got != 0 {
		t.Fatalf("none-similar: %v, want 0", got)
	}
}

// exactSimilarityNaive is the direct row-by-row evaluation of the §3.1
// measure, the reference the blocked kernel is tested (and benchmarked)
// against.
func exactSimilarityNaive(x, y []vec.Vector, epsilon float64) float64 {
	if len(x) == 0 || len(y) == 0 {
		return 0
	}
	eps2 := epsilon * epsilon
	matched := 0
	yHit := make([]bool, len(y))
	for _, fx := range x {
		found := false
		for yi, fy := range y {
			if vec.Dist2(fx, fy) <= eps2 {
				yHit[yi] = true
				if !found {
					found = true
					// Keep scanning: yHit marks must be complete for the
					// reverse direction.
				}
			}
		}
		if found {
			matched++
		}
	}
	for _, h := range yHit {
		if h {
			matched++
		}
	}
	return float64(matched) / float64(len(x)+len(y))
}

// exactSimVideos builds the frame pair shared by the exact-similarity
// benchmarks: long enough that Y no longer fits in L1 when streamed per
// frame of X, which is the access pattern the blocked kernel fixes.
func exactSimVideos() (x, y []vec.Vector) {
	rng := rand.New(rand.NewSource(9))
	mkVideo := func() []vec.Vector {
		out := make([]vec.Vector, 250)
		for i := range out {
			f := make(vec.Vector, 64)
			for j := 0; j < 8; j++ {
				f[rng.Intn(64)] += rng.Float64()
			}
			out[i] = f
		}
		return out
	}
	return mkVideo(), mkVideo()
}

func BenchmarkExactSimilarityNaive(b *testing.B) {
	x, y := exactSimVideos()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exactSimilarityNaive(x, y, 0.3)
	}
}

func BenchmarkExactSimilarityBlocked(b *testing.B) {
	x, y := exactSimVideos()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExactSimilarity(x, y, 0.3)
	}
}
