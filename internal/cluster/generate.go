package cluster

import (
	"math"
	"math/rand"

	"vitri/internal/vec"
)

// Cluster is one tight group of similar frames produced by Generate: the
// center, the refined radius min(R_max, µ+σ), the member frame indices
// (into the original point slice), and the distance statistics that
// produced the radius.
type Cluster struct {
	Center  vec.Vector
	Radius  float64
	Members []int
	Mu      float64 // mean distance of members to Center
	Sigma   float64 // population standard deviation of those distances
}

// Size returns the number of frames in the cluster (|C| in the paper).
func (c *Cluster) Size() int { return len(c.Members) }

// Generator runs the paper's Generate_Clusters algorithm on reusable
// scratch buffers. One Generator summarizes any number of videos in
// sequence without reallocating its working set, which is what each
// ingest worker holds. A Generator is NOT safe for concurrent use: the
// scratch is owned by exactly one goroutine at a time (see DESIGN.md
// "Ingest pipeline" for the ownership rules).
//
// Scratch reuse never changes results: the kernels preserve the exact
// floating-point operation order of the allocation-per-call
// implementation, so Generate output depends only on (points, epsilon,
// rng state).
type Generator struct {
	km    scratch      // k-means working set for bisections
	group []vec.Vector // views of the current group's points
	tmp   []int        // right-hand side buffer for stable partitions
	items []distIdx    // fallback median-split ordering
	mean  vec.Vector   // group centroid scratch
}

// NewGenerator returns an empty Generator; buffers grow on first use.
func NewGenerator() *Generator { return &Generator{} }

// Generate implements the paper's Generate_Clusters algorithm (Figure 3):
// recursively bisect points with 2-means until each cluster's refined
// radius min(R, µ+σ) is at most ε/2, guaranteeing any two frames within a
// cluster are within ε of each other. rng seeds the bisections; pass a
// deterministic source for reproducible summaries.
//
// Degenerate inputs are handled conservatively: singleton and duplicate
// point sets terminate immediately (radius 0), and a bisection that fails
// to split (2-means puts everything on one side) falls back to a
// median-distance split so recursion always makes progress.
func Generate(points []vec.Vector, epsilon float64, rng *rand.Rand) []Cluster {
	return NewGenerator().Generate(points, epsilon, rng)
}

// Generate runs the recursive binary clustering on the Generator's
// scratch. See the package-level Generate for the algorithm contract.
func (g *Generator) Generate(points []vec.Vector, epsilon float64, rng *rand.Rand) []Cluster {
	if epsilon <= 0 {
		panic("cluster: Generate requires epsilon > 0")
	}
	if len(points) == 0 {
		return nil
	}
	// idx is the recursion's working set: bisections partition it in
	// place, so the whole run reorders this one slice instead of
	// allocating left/right lists at every node.
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	var out []Cluster
	g.generate(points, idx, epsilon, rng, &out, 0)
	return out
}

// maxDepth caps the recursion; 2^64 clusters is unreachable so this only
// guards against pathological non-progress.
const maxDepth = 64

func (g *Generator) generate(points []vec.Vector, idx []int, epsilon float64, rng *rand.Rand, out *[]Cluster, depth int) {
	radius, mu, sigma := g.groupStats(points, idx)
	if radius <= epsilon/2 || len(idx) == 1 || depth >= maxDepth {
		// Materialize the cluster only at a leaf: interior nodes of the
		// bisection tree never escape, so their center/member copies
		// would be garbage.
		center := make(vec.Vector, len(g.mean))
		copy(center, g.mean)
		members := make([]int, len(idx))
		copy(members, idx)
		*out = append(*out, Cluster{Center: center, Radius: radius, Members: members, Mu: mu, Sigma: sigma})
		return
	}
	left, right := g.bisect(points, idx, rng)
	if len(left) == 0 || len(right) == 0 {
		// No progress possible (identical points would have radius 0, so
		// this indicates numeric degeneracy); accept the cluster as-is.
		center := make(vec.Vector, len(g.mean))
		copy(center, g.mean)
		members := make([]int, len(idx))
		copy(members, idx)
		*out = append(*out, Cluster{Center: center, Radius: radius, Members: members, Mu: mu, Sigma: sigma})
		return
	}
	g.generate(points, left, epsilon, rng, out, depth+1)
	g.generate(points, right, epsilon, rng, out, depth+1)
}

// groupStats computes the centroid (left in g.mean), distance statistics
// and refined radius min(maxDist, µ+σ) for the group of points selected
// by idx, allocating nothing once the scratch is warm.
func (g *Generator) groupStats(points []vec.Vector, idx []int) (radius, mu, sigma float64) {
	n := len(points[idx[0]])
	if cap(g.mean) < n {
		g.mean = make(vec.Vector, n)
	}
	g.mean = g.mean[:n]
	for j := range g.mean {
		g.mean[j] = 0
	}
	for _, i := range idx {
		vec.AddInPlace(g.mean, points[i])
	}
	vec.ScaleInPlace(g.mean, 1/float64(len(idx)))

	var sum, sum2, maxD float64
	for _, i := range idx {
		d := vec.Dist(points[i], g.mean)
		sum += d
		sum2 += float64(d * d)
		if d > maxD {
			maxD = d
		}
	}
	m := float64(len(idx))
	mu = sum / m
	variance := sum2/m - float64(mu*mu)
	if variance < 0 {
		variance = 0
	}
	sigma = math.Sqrt(variance)
	return math.Min(maxD, mu+sigma), mu, sigma
}

// distIdx pairs a member id with its distance to the group centroid for
// the fallback median split.
type distIdx struct {
	d  float64
	id int
}

// bisect splits the group with 2-means, stably partitioning idx in place
// and returning the two halves as subslices. If 2-means degenerates to a
// single non-empty side, it falls back to splitting at the median
// distance from the centroid.
func (g *Generator) bisect(points []vec.Vector, idx []int, rng *rand.Rand) (left, right []int) {
	g.group = g.group[:0]
	for _, id := range idx {
		g.group = append(g.group, points[id])
	}
	kmeansRun(g.group, 2, rng, 0, &g.km)
	// Stable in-place partition by assignment: left-side ids compact to
	// the front, right-side ids stage through tmp, both keeping their
	// relative order (the accumulation order downstream float folds see).
	g.tmp = g.tmp[:0]
	w := 0
	for i, id := range idx {
		if g.km.assign[i] == 0 {
			idx[w] = id
			w++
		} else {
			g.tmp = append(g.tmp, id)
		}
	}
	copy(idx[w:], g.tmp)
	left, right = idx[:w], idx[w:]
	if len(left) > 0 && len(right) > 0 {
		return left, right
	}
	// Fallback: order by distance to the centroid and cut at the median.
	// g.mean still holds this group's centroid from groupStats.
	g.items = g.items[:0]
	for _, id := range idx {
		g.items = append(g.items, distIdx{vec.Dist(points[id], g.mean), id})
	}
	// Insertion sort: groups here are small and already nearly ordered.
	for i := 1; i < len(g.items); i++ {
		v := g.items[i]
		j := i - 1
		for j >= 0 && g.items[j].d > v.d {
			g.items[j+1] = g.items[j]
			j--
		}
		g.items[j+1] = v
	}
	for i, it := range g.items {
		idx[i] = it.id
	}
	mid := len(idx) / 2
	return idx[:mid], idx[mid:]
}

// Validate reports whether every pair of frames in the cluster is within
// epsilon. This holds strictly when Radius equals the max member distance;
// when the µ+σ refinement shrank the radius below the true extent, a small
// fraction of outlier pairs may exceed ε (the paper's deliberate
// trade-off), so callers should only require Validate in the strict case.
// Intended for tests and debugging; O(|C|²).
func (c *Cluster) Validate(points []vec.Vector, epsilon float64) bool {
	for i := 0; i < len(c.Members); i++ {
		for j := i + 1; j < len(c.Members); j++ {
			if vec.Dist(points[c.Members[i]], points[c.Members[j]]) > epsilon+1e-9 {
				return false
			}
		}
	}
	return true
}
