package sig

import (
	"math"
	"math/rand"
	"testing"

	"vitri/internal/core"
	"vitri/internal/vec"
)

// TestPruneConservative is the tier's load-bearing property: whenever
// Prune says a pair of spheres is disjoint, the exact geometry must
// agree — center distance beyond the radius sum and zero shared frames.
// Exercised over random sphere pairs at several dimensionalities and
// scales, including coordinates outside the grid (negative, beyond the
// clamp) and near-touching pairs.
func TestPruneConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	eps := 0.3
	w := CellWidth(eps)
	pruned, evaluated := 0, 0
	for _, dim := range []int{1, 3, 8, 64, 100} {
		for trial := 0; trial < 3000; trial++ {
			a := randCenter(rng, dim)
			b := randCenter(rng, dim)
			// Half the trials pull b close to a so near-boundary pairs are
			// represented, not just far-apart ones.
			if trial%2 == 0 {
				for d := range b {
					b[d] = a[d] + (rng.Float64()-0.5)*4*w
				}
			}
			ra := 0.001 + rng.Float64()*eps/2
			rb := 0.001 + rng.Float64()*eps/2
			sa := FromTriplet(a, ra, w)
			sb := FromTriplet(b, rb, w)
			evaluated++
			if !Prune(GapScore(sa, sb), ra+rb, w) {
				continue
			}
			pruned++
			if d := vec.Dist(a, b); d <= ra+rb {
				t.Fatalf("dim %d trial %d: pruned but centers %.6f apart with radius sum %.6f", dim, trial, d, ra+rb)
			}
			ta := core.NewViTri(a, ra, 3)
			tb := core.NewViTri(b, rb, 3)
			if shared := core.SharedFrames(&ta, &tb); shared != 0 {
				t.Fatalf("dim %d trial %d: pruned but SharedFrames = %v", dim, trial, shared)
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no pair was ever pruned — the gate is inert and the test proved nothing")
	}
	t.Logf("pruned %d of %d pairs", pruned, evaluated)
}

// randCenter draws coordinates in [-0.5, 1.5): mostly inside the unit
// histogram space the grid is tuned for, with a fringe outside the
// clamped cells.
func randCenter(rng *rand.Rand, dim int) vec.Vector {
	v := make(vec.Vector, dim)
	for d := range v {
		v[d] = rng.Float64()*2 - 0.5
	}
	return v
}

// TestVideoGateImpliesTripletGate: a video-level prune (union planes,
// max radius) must imply the per-triplet prune for every triplet it
// absorbed — the two-tier gate's short-circuit relies on it.
func TestVideoGateImpliesTripletGate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eps := 0.3
	w := CellWidth(eps)
	for trial := 0; trial < 2000; trial++ {
		dim := 1 + rng.Intn(80)
		n := 1 + rng.Intn(6)
		video := New(dim)
		trips := make([]*Signature, n)
		radii := make([]float64, n)
		for i := 0; i < n; i++ {
			c := randCenter(rng, dim)
			radii[i] = 0.001 + rng.Float64()*eps/2
			trips[i] = FromTriplet(c, radii[i], w)
			video.Add(c, radii[i], w)
		}
		q := FromTriplet(randCenter(rng, dim), 0.001+rng.Float64()*eps/2, w)
		if !Prune(GapScore(q, video), q.MaxRadius+video.MaxRadius, w) {
			continue
		}
		for i := 0; i < n; i++ {
			if !Prune(GapScore(q, trips[i]), q.MaxRadius+radii[i], w) {
				t.Fatalf("trial %d: video gate pruned but triplet %d survives", trial, i)
			}
		}
	}
}

// TestGapScoreBruteForce checks the SWAR kernel against a scalar
// reference over random occupancy patterns.
func TestGapScoreBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		dim := 1 + rng.Intn(130)
		q := New(dim)
		target := New(dim)
		qCell := make([]int, dim)
		occupied := make([][]bool, dim)
		for d := 0; d < dim; d++ {
			qCell[d] = rng.Intn(Cells)
			q.Planes[qCell[d]][d/64] |= 1 << (uint(d) % 64)
			occupied[d] = make([]bool, Cells)
			for c := 0; c < Cells; c++ {
				if rng.Intn(3) == 0 {
					occupied[d][c] = true
					target.Planes[c][d/64] |= 1 << (uint(d) % 64)
				}
			}
		}
		want := 0
		for d := 0; d < dim; d++ {
			any := false
			g := Cells
			for c := 0; c < Cells; c++ {
				if !occupied[d][c] {
					continue
				}
				any = true
				if diff := abs(c - qCell[d]); diff < g {
					g = diff
				}
			}
			if !any {
				// A dimension with no occupied cell scores as maximally
				// distant from the query's cell (gap 3 from the edge cells,
				// gap 2 from the middle ones) — see the GapScore contract.
				if qCell[d] == 0 || qCell[d] == Cells-1 {
					want += 4
				} else {
					want++
				}
				continue
			}
			if g >= 2 {
				want += (g - 1) * (g - 1)
			}
		}
		if got := GapScore(q, target); got != want {
			t.Fatalf("trial %d (dim %d): GapScore = %d, brute force = %d", trial, dim, got, want)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestCellWidthDataIndependent pins the property shard equivalence
// rests on: the grid is a pure function of ε.
func TestCellWidthDataIndependent(t *testing.T) {
	eps := 0.3
	if CellWidth(eps) != eps/3 {
		t.Fatalf("CellWidth(%v) = %v, want %v", eps, CellWidth(eps), eps/3)
	}
	if math.IsNaN(CellWidth(eps)) || CellWidth(eps) <= 0 {
		t.Fatal("cell width must be positive")
	}
}
