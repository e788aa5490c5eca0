package geometry

import "math"

// Lens describes the intersection of two n-spheres at center distance d:
// the case taxonomy of paper §4.2 plus the cap angles when they exist.
type Lens struct {
	Case   IntersectCase
	Alpha1 float64 // cap half-angle at the sphere-1 center (0 if unused)
	Alpha2 float64 // cap half-angle at the sphere-2 center (0 if unused)
}

// IntersectCase labels the four configurations of §4.2.
type IntersectCase int

const (
	// Disjoint: d >= R1 + R2, no shared volume (Case 1).
	Disjoint IntersectCase = iota
	// Lune: R2 <= d < R1+R2 with both caps at most a hemisphere (Case 2).
	Lune
	// MajorOverlap: R1-R2 <= d < R2; the smaller sphere's cap exceeds a
	// hemisphere (Case 3).
	MajorOverlap
	// Contained: d < R1 - R2; the smaller sphere lies inside the larger
	// (Case 4).
	Contained
)

// String implements fmt.Stringer for diagnostics.
func (c IntersectCase) String() string {
	switch c {
	case Disjoint:
		return "disjoint"
	case Lune:
		return "lune"
	case MajorOverlap:
		return "major-overlap"
	case Contained:
		return "contained"
	}
	return "unknown"
}

// Classify determines the §4.2 case and cap angles for spheres of radii r1
// and r2 whose centers are d apart. Radii may be given in either order.
func Classify(d, r1, r2 float64) Lens {
	if d < 0 || r1 < 0 || r2 < 0 {
		panic("geometry: negative distance or radius")
	}
	if r1 < r2 {
		r1, r2 = r2, r1
	}
	switch {
	case d >= r1+r2:
		return Lens{Case: Disjoint}
	case d < r1-r2 || d == 0:
		// d == 0 with equal radii is full overlap of identical spheres,
		// treated as containment of sphere 2.
		return Lens{Case: Contained}
	}
	// Cap angles from the law of cosines on the triangle (O1, O2, rim
	// point). alpha_i is the half-angle of sphere i's cap beyond the
	// radical hyperplane.
	cos1 := (float64(d*d) + float64(r1*r1) - float64(r2*r2)) / (2 * d * r1)
	cos2 := (float64(d*d) + float64(r2*r2) - float64(r1*r1)) / (2 * d * r2)
	l := Lens{
		Alpha1: math.Acos(clampCos(cos1)),
		Alpha2: math.Acos(clampCos(cos2)),
	}
	if l.Alpha2 > math.Pi/2 {
		l.Case = MajorOverlap
	} else {
		l.Case = Lune
	}
	return l
}

func clampCos(c float64) float64 {
	if c > 1 {
		return 1
	}
	if c < -1 {
		return -1
	}
	return c
}

// IntersectionVolume returns the volume shared by two n-spheres of radii r1
// and r2 whose centers are d apart. The lens volume is the sum of the two
// hypercaps cut off by the radical hyperplane; with CapVolume defined on
// [0, π] this single expression covers the paper's cases 2 and 3, and the
// disjoint/contained cases short-circuit.
func IntersectionVolume(n int, d, r1, r2 float64) float64 {
	if r1 < r2 {
		r1, r2 = r2, r1
	}
	l := Classify(d, r1, r2)
	switch l.Case {
	case Disjoint:
		return 0
	case Contained:
		return SphereVolume(n, r2)
	}
	return CapVolume(n, r1, l.Alpha1) + CapVolume(n, r2, l.Alpha2)
}

// LogIntersectionVolume returns ln(IntersectionVolume) computed without
// leaving log space, so it remains meaningful when the volumes themselves
// underflow float64. Returns -Inf for disjoint spheres or zero radii.
func LogIntersectionVolume(n int, d, r1, r2 float64) float64 {
	if r1 < r2 {
		r1, r2 = r2, r1
	}
	l := Classify(d, r1, r2)
	switch l.Case {
	case Disjoint:
		return math.Inf(-1)
	case Contained:
		return LogSphereVolume(n, r2)
	}
	return logSumExp(LogCapVolume(n, r1, l.Alpha1), LogCapVolume(n, r2, l.Alpha2))
}

// logSumExp returns ln(e^a + e^b) stably.
func logSumExp(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}
