package geometry

import (
	"fmt"
	"math"
)

// checkDim panics unless n is a supported dimensionality (>= 1).
func checkDim(n int) {
	if n < 1 {
		panic(fmt.Sprintf("geometry: invalid dimensionality %d", n))
	}
}

// checkRadius panics on negative radii; zero is allowed (empty sphere).
func checkRadius(r float64) {
	if r < 0 || math.IsNaN(r) {
		panic(fmt.Sprintf("geometry: invalid radius %v", r))
	}
}

// LogUnitSphereVolume returns ln of the volume of the n-dimensional unit
// hypersphere: (n/2)·ln(π) − lnΓ(n/2 + 1).
func LogUnitSphereVolume(n int) float64 {
	checkDim(n)
	nf := float64(n)
	return float64(nf/2*math.Log(math.Pi)) - lgamma(float64(nf/2)+1)
}

// SphereVolume returns the volume of an n-dimensional hypersphere of
// radius r. Overflows/underflows to ±Inf/0 in extreme regimes; use
// LogSphereVolume when ratios of volumes are needed.
func SphereVolume(n int, r float64) float64 {
	checkRadius(r)
	if r == 0 {
		return 0
	}
	return math.Exp(LogSphereVolume(n, r))
}

// LogSphereVolume returns ln(SphereVolume(n, r)). r must be positive.
func LogSphereVolume(n int, r float64) float64 {
	checkDim(n)
	checkRadius(r)
	if r == 0 {
		return math.Inf(-1)
	}
	return LogUnitSphereVolume(n) + float64(float64(n)*math.Log(r))
}

// clampAngle normalizes α into [0, π]; volume formulas are defined on that
// range (α is the angle at the sphere center, Figure 1 of the paper).
func clampAngle(alpha float64) float64 {
	switch {
	case math.IsNaN(alpha):
		panic("geometry: NaN angle")
	case alpha < 0:
		return 0
	case alpha > math.Pi:
		return math.Pi
	}
	return alpha
}

// CapFraction returns the fraction of an n-sphere's volume contained in the
// hypercap of half-angle α (the angle between the cap axis and the cone to
// the cap rim, measured at the center). α in [0, π/2] gives at most half
// the sphere; α in (π/2, π] gives the complement.
func CapFraction(n int, alpha float64) float64 {
	checkDim(n)
	alpha = clampAngle(alpha)
	s := math.Sin(alpha)
	x := s * s
	half := float64(0.5 * RegIncompleteBeta((float64(n)+1)/2, 0.5, x))
	if alpha <= math.Pi/2 {
		return half
	}
	return 1 - half
}

// SurfaceCapFraction returns the fraction of the n-sphere's *surface area*
// within angle α of a pole. A hypersector's volume is the sphere volume
// times this fraction (the sector is the radial extrusion of the surface
// cap).
func SurfaceCapFraction(n int, alpha float64) float64 {
	checkDim(n)
	if n == 1 {
		// The 1-sphere "surface" is two points; any α < π covers one of
		// them, α = π covers both.
		if clampAngle(alpha) < math.Pi {
			return 0.5
		}
		return 1
	}
	alpha = clampAngle(alpha)
	s := math.Sin(alpha)
	x := s * s
	half := 0.5 * RegIncompleteBeta((float64(n)-1)/2, 0.5, x)
	if alpha <= math.Pi/2 {
		return half
	}
	return 1 - half
}

// CapVolume returns the volume of the hypercap of an n-sphere of radius r
// with half-angle α, V_hypercap(O, R, α) in the paper's notation.
func CapVolume(n int, r, alpha float64) float64 {
	checkRadius(r)
	if r == 0 {
		return 0
	}
	return SphereVolume(n, r) * CapFraction(n, alpha)
}

// LogCapVolume returns ln(CapVolume). Returns -Inf when the cap is empty.
func LogCapVolume(n int, r, alpha float64) float64 {
	f := CapFraction(n, alpha)
	if r == 0 || f == 0 {
		return math.Inf(-1)
	}
	return LogSphereVolume(n, r) + math.Log(f)
}

// SectorVolume returns the volume of the hypersector of half-angle α.
func SectorVolume(n int, r, alpha float64) float64 {
	checkRadius(r)
	if r == 0 {
		return 0
	}
	return SphereVolume(n, r) * SurfaceCapFraction(n, alpha)
}

// ConeVolume returns the volume of the hypercone inscribed in the sector of
// half-angle α: an (n−1)-ball base of radius r·sin(α) at height r·cos(α),
// with volume V_{n-1}(r sin α) · r cos α / n. For α > π/2 the cone volume
// is negative (the apex lies beyond the base plane), matching the
// convention under which cap = sector − cone for all α.
func ConeVolume(n int, r, alpha float64) float64 {
	checkDim(n)
	checkRadius(r)
	alpha = clampAngle(alpha)
	if r == 0 {
		return 0
	}
	if n == 1 {
		return 0
	}
	base := SphereVolume(n-1, r*math.Sin(alpha))
	return base * r * math.Cos(alpha) / float64(n)
}

// wallis returns the coefficient (2i)! / (2^{2i} (i!)^2) = C(2i, i) / 4^i
// appearing in the paper's odd-dimension series.
func wallis(i int) float64 {
	v := 1.0
	for k := 1; k <= i; k++ {
		v *= float64(2*k-1) / float64(2*k)
	}
	return v
}

// invWallisOdd returns the coefficient 2^{2i} (i!)^2 / (2i+1)! appearing in
// the paper's even-dimension series.
func invWallisOdd(i int) float64 {
	v := 1.0
	for k := 1; k <= i; k++ {
		v *= float64(2*k) / float64(2*k+1)
	}
	return v / float64(1) // i=0 term is 1
}

// SectorVolumeSeries evaluates the paper's §3.2 finite-series formula for
// the hypersector volume (upper series term count differs from the cap by
// one). It is retained for fidelity and cross-checked against SectorVolume
// in tests; prefer SectorVolume in production code.
func SectorVolumeSeries(n int, r, alpha float64) float64 {
	return paperSeries(n, r, alpha, false)
}

// CapVolumeSeries evaluates the paper's §3.2 finite-series formula for the
// hypercap volume ("identical to that of the hypersector, except the number
// appearing in the top of sigma").
func CapVolumeSeries(n int, r, alpha float64) float64 {
	return paperSeries(n, r, alpha, true)
}

// paperSeries implements both series. For even n the sum runs to
// (n-4)/2 (sector) or (n-2)/2 (cap); for odd n to (n-3)/2 or (n-1)/2.
func paperSeries(n int, r, alpha float64, cap bool) float64 {
	checkDim(n)
	checkRadius(r)
	alpha = clampAngle(alpha)
	if r == 0 {
		return 0
	}
	sin, cos := math.Sin(alpha), math.Cos(alpha)
	if n%2 == 0 {
		upper := (n - 4) / 2
		if cap {
			upper = (n - 2) / 2
		}
		var sum float64
		sp := sin // sin^(2i+1)
		ci := 1.0 // 2^{2i} (i!)^2 / (2i+1)!, updated incrementally
		for i := 0; i <= upper; i++ {
			sum += ci * sp
			sp *= sin * sin
			ci *= float64(2*(i+1)) / float64(2*(i+1)+1)
		}
		// Coefficient R^n * pi^{(n-2)/2} / (n/2)!.
		lc := float64(n)*math.Log(r) + float64(n-2)/2*math.Log(math.Pi) - lgamma(float64(n)/2+1)
		return math.Exp(lc) * (alpha - cos*sum)
	}
	upper := (n - 3) / 2
	if cap {
		upper = (n - 1) / 2
	}
	var sum float64
	sp := 1.0 // sin^(2i)
	ci := 1.0 // (2i)! / (2^{2i} (i!)^2), updated incrementally
	for i := 0; i <= upper; i++ {
		sum += ci * sp
		sp *= sin * sin
		ci *= float64(2*(i+1)-1) / float64(2*(i+1))
	}
	// Coefficient is half the sphere volume: V_sphere(n, r) / 2.
	return SphereVolume(n, r) / 2 * (1 - cos*sum)
}
