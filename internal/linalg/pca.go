package linalg

import (
	"math"

	"vitri/internal/vec"
)

// PCA is the result of a principal component analysis over a point set:
// the data mean, the principal directions sorted by descending variance,
// and the variance (eigenvalue) along each direction.
type PCA struct {
	Mean       vec.Vector
	Components []vec.Vector // unit vectors, descending variance
	Variances  []float64
}

// ComputePCA runs a full PCA over points. It panics on an empty set; with a
// single point the components are an arbitrary orthonormal basis with zero
// variances, which downstream code treats as "no dominant direction".
func ComputePCA(points []vec.Vector) PCA {
	cov, mean := Covariance(points)
	eig := EigenSym(cov)
	return PCA{Mean: mean, Components: eig.Vectors, Variances: eig.Values}
}

// First returns the first principal component Φ1 (largest variance).
func (p PCA) First() vec.Vector { return p.Components[0] }

// VarianceSegment is the segment of the line identified by a principal
// component between the two furthermost projections of the data
// (Definition 1 in the paper). Lo and Hi are scalar projections onto the
// component; the segment in space is {t·Φ : t ∈ [Lo,Hi]} shifted to the
// component's line through the data.
type VarianceSegment struct {
	Component vec.Vector
	Lo, Hi    float64
}

// Length returns the extent of the segment along the component.
func (s VarianceSegment) Length() float64 { return s.Hi - s.Lo }

// SegmentAlong computes the variance segment of points along the unit
// direction comp: the extreme scalar projections x·comp.
func SegmentAlong(points []vec.Vector, comp vec.Vector) VarianceSegment {
	if len(points) == 0 {
		panic("linalg: SegmentAlong with no points")
	}
	lo := math.Inf(1)
	hi := math.Inf(-1)
	for _, pt := range points {
		t := vec.Dot(pt, comp)
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	return VarianceSegment{Component: vec.Clone(comp), Lo: lo, Hi: hi}
}

// AngleBetween returns the angle in radians between two directions,
// insensitive to sign (eigenvectors are defined up to ±). Used by the index
// to detect principal-direction drift under dynamic insertion (§6.3.3).
//
// It uses the half-angle form 2·atan2(|u−v|, |u+v|) over the unit vectors
// u, v rather than acos(u·v): acos cannot resolve angles below about 1e-8
// (its argument rounds to 1), while the half-angle form is accurate down
// to zero and returns exactly 0 for equal directions.
func AngleBetween(a, b vec.Vector) float64 {
	na, nb := vec.Norm(a), vec.Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	var diff, sum float64
	for i := range a {
		u, v := a[i]/na, b[i]/nb
		diff += float64((u - v) * (u - v))
		sum += float64((u + v) * (u + v))
	}
	// The smaller of the two is the angle between the lines (a and −b span
	// the same one).
	return 2 * math.Atan2(math.Sqrt(math.Min(diff, sum)), math.Sqrt(math.Max(diff, sum)))
}
