// Package geometry implements the n-dimensional volume computations that
// underpin ViTri similarity (paper §3.2): hypersphere, hypersector,
// hypercone and hypercap volumes, and the volume of intersection of two
// hyperspheres.
//
// Two independent formulations are provided and cross-checked in tests:
//
//   - the paper's closed-form finite series for even/odd dimensionality
//     (SectorVolumeSeries, CapVolumeSeries), and
//   - a regularized-incomplete-beta formulation (CapVolume, SectorVolume)
//     that is numerically stable for all angles and dimensions.
//
// Because cluster volumes in high-dimensional spaces underflow float64
// (a 64-d sphere of radius 0.15 has volume ~1e-73), log-space variants
// (LogSphereVolume, LogCapVolume, LogIntersectionVolume) are the production
// path used by the similarity measure.
package geometry

import "math"

// RegIncompleteBeta returns the regularized incomplete beta function
// I_x(a, b) for a, b > 0 and x in [0, 1], computed with the continued
// fraction expansion (modified Lentz method) plus the symmetry relation
// I_x(a,b) = 1 - I_{1-x}(b,a) for fast convergence on either side of the
// mean a/(a+b).
func RegIncompleteBeta(a, b, x float64) float64 {
	switch {
	case a <= 0 || b <= 0:
		panic("geometry: RegIncompleteBeta requires a, b > 0")
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	// ln of the prefactor x^a (1-x)^b / (a B(a,b)).
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + float64(a*math.Log(x)) + float64(b*math.Log1p(-x)))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-16
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		mf := float64(m)
		aa := mf * (b - mf) * x / ((qam + m2) * (a + m2))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + mf) * (qab + mf) * x / ((a + m2) * (qap + m2))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := float64(d * c)
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// lgamma wraps math.Lgamma discarding the sign, which is always +1 for the
// positive arguments used here.
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
