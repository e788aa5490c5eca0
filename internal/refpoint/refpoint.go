// Package refpoint implements the paper's one-dimensional transformation
// (§5.1): a high-dimensional point O is mapped to the single key
// d(O, O′) for a chosen reference point O′, so a B+-tree over the keys can
// prune by the triangle inequality.
//
// Three reference-point strategies are provided, matching the paper's
// comparison; Optimal, the paper's, is the zero Kind:
//
//   - SpaceCenter — the center of the (bounded) data space, as in the
//     iDistance baseline configuration;
//   - DataCenter — the centroid of the data;
//   - Optimal — a point on the line of the first principal component Φ1,
//     shifted outside Φ1's variance segment (Theorem 1), which maximally
//     preserves the variance of inter-point distances after transformation.
package refpoint

import (
	"fmt"

	"vitri/internal/linalg"
	"vitri/internal/vec"
)

// Kind selects the reference-point strategy. The zero value is Optimal,
// the paper's contribution; the others exist for its comparisons.
type Kind int

const (
	// Optimal uses the PCA construction of Theorem 1.
	Optimal Kind = iota
	// SpaceCenter uses the midpoint of the data space bounds.
	SpaceCenter
	// DataCenter uses the centroid of the dataset.
	DataCenter
	// MultiRef is the full iDistance scheme (the paper's [15]): k-means
	// partition centers as reference points with disjoint key bands.
	// Built with NewMulti, not New.
	MultiRef
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case SpaceCenter:
		return "space-center"
	case DataCenter:
		return "data-center"
	case Optimal:
		return "optimal"
	case MultiRef:
		return "idistance-multi"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// DefaultOffsetFraction is how far past the end of the variance segment
// (as a fraction of segment length) the optimal reference point is placed.
// Theorem 1 only requires "outside the segment"; a modest margin keeps the
// point clear of segment growth under later insertions.
const DefaultOffsetFraction = 0.25

// Config parameterizes New.
type Config struct {
	Kind Kind
	// SpaceLo/SpaceHi bound each dimension for SpaceCenter (the feature
	// histograms of the paper live in [0, 1]^n). Ignored otherwise.
	SpaceLo, SpaceHi float64
	// OffsetFraction is the margin past the variance segment for Optimal;
	// 0 selects DefaultOffsetFraction.
	OffsetFraction float64
}

// Transform maps n-dimensional points to one-dimensional keys relative to
// its reference point.
type Transform struct {
	kind Kind
	ref  vec.Vector
	// firstPC and segment are retained for Optimal transforms so the
	// index can detect principal-direction drift (§6.3.3).
	firstPC vec.Vector
	segment linalg.VarianceSegment
}

// New builds a transform of the configured kind over the given points
// (points are required for DataCenter and Optimal; SpaceCenter needs only
// the dimensionality of the first point). For Optimal it runs the moment
// pass itself and then fits exactly as Fit does.
func New(cfg Config, points []vec.Vector) (*Transform, error) {
	var m *linalg.Moments
	if cfg.Kind == Optimal && len(points) > 0 {
		m = linalg.NewMoments(len(points[0]))
		for _, p := range points {
			m.Add(p)
		}
	}
	return Fit(cfg, m, points)
}

// Fit builds a transform of the configured kind over points. For Optimal,
// m must hold the moments of exactly these points (a caller that keeps
// running moments anyway, like the index, passes them in so the fit costs
// no second covariance pass); the other kinds ignore m.
//
// The Optimal fit takes Φ1 and the data mean from the moments and makes
// one O(n·dim) pass over points for Φ1's variance segment.
func Fit(cfg Config, m *linalg.Moments, points []vec.Vector) (*Transform, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("refpoint: no points to derive a %v reference", cfg.Kind)
	}
	dim := len(points[0])
	switch cfg.Kind {
	case SpaceCenter:
		if cfg.SpaceHi <= cfg.SpaceLo {
			return nil, fmt.Errorf("refpoint: invalid space bounds [%v, %v]", cfg.SpaceLo, cfg.SpaceHi)
		}
		ref := make(vec.Vector, dim)
		mid := (cfg.SpaceLo + cfg.SpaceHi) / 2
		for i := range ref {
			ref[i] = mid
		}
		return &Transform{kind: cfg.Kind, ref: ref}, nil
	case DataCenter:
		return &Transform{kind: cfg.Kind, ref: vec.Mean(points)}, nil
	case Optimal:
		off := cfg.OffsetFraction
		if off == 0 {
			off = DefaultOffsetFraction
		}
		if off < 0 {
			return nil, fmt.Errorf("refpoint: negative offset fraction %v", off)
		}
		if m == nil || m.Count() != len(points) {
			return nil, fmt.Errorf("refpoint: optimal fit needs the moments of its %d points", len(points))
		}
		pc := m.FirstPC()
		if pc == nil {
			// One point has no principal direction; any unit vector
			// serves.
			pc = make(vec.Vector, dim)
			pc[0] = 1
		}
		seg := linalg.SegmentAlong(points, pc)
		// Place the reference on the Φ1 line through the data mean,
		// beyond the segment's upper end by off×length. With zero
		// variance (all points equal) the segment degenerates; fall back
		// to a unit offset so keys remain well defined.
		length := seg.Length()
		if length == 0 {
			length = 1
		}
		mean := m.Mean()
		shift := (seg.Hi - vec.Dot(mean, pc)) + float64(off*length)
		ref := vec.Add(mean, vec.Scale(pc, shift))
		return &Transform{kind: cfg.Kind, ref: ref, firstPC: pc, segment: seg}, nil
	}
	return nil, fmt.Errorf("refpoint: unknown kind %v", cfg.Kind)
}

// Kind returns the strategy that produced this transform.
func (t *Transform) Kind() Kind { return t.kind }

// Ref returns the reference point O′ (not a copy; treat as read-only).
func (t *Transform) Ref() vec.Vector { return t.ref }

// Dim returns the dimensionality of the transform's space.
func (t *Transform) Dim() int { return len(t.ref) }

// Key maps a point to its one-dimensional key d(p, O′).
func (t *Transform) Key(p vec.Vector) float64 {
	return vec.Dist(p, t.ref)
}

// FirstPC returns the first principal component captured at construction,
// or nil for non-Optimal transforms.
func (t *Transform) FirstPC() vec.Vector { return t.firstPC }
