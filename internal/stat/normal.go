package stat

import "math"

const (
	invSqrt2Pi = 0.3989422804014326779399460599343818684758586311649346 // 1/√(2π)
	sqrt2      = 1.4142135623730950488016887242096980785696718753769
)

// NormPDF returns the standard Normal density φ(x).
func NormPDF(x float64) float64 {
	return invSqrt2Pi * math.Exp(-0.5*x*x)
}

// NormCDF returns the standard Normal CDF Φ(x), accurate in both tails via
// erfc.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/sqrt2)
}

// NormSF returns the survival function 1 − Φ(x), accurate for large x.
func NormSF(x float64) float64 {
	return 0.5 * math.Erfc(x/sqrt2)
}

// NormQuantile returns Φ⁻¹(p) for p in (0, 1). It uses Acklam's rational
// approximation refined by one Halley step against the erfc-based CDF,
// giving ~1e-15 relative accuracy — enough for inverse-transform sampling
// deep in the tails (|x| up to ~8σ), which the Gibbs engine requires.
func NormQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		case p == 0: //reprolint:ignore floateq exact domain boundary: the quantile is -Inf only at exactly 0, NaN for p < 0
			return math.Inf(-1)
		case p == 1: //reprolint:ignore floateq exact domain boundary: the quantile is +Inf only at exactly 1, NaN for p > 1
			return math.Inf(1)
		}
		return math.NaN()
	}
	x := acklam(p)
	// Halley refinement: e = Φ(x) − p, u = e/φ(x),
	// x ← x − u / (1 + x·u/2).
	for i := 0; i < 2; i++ {
		e := NormCDF(x) - p
		u := e / NormPDF(x)
		x -= u / (1 + 0.5*x*u)
	}
	return x
}

// acklam is Peter Acklam's rational approximation to the Normal quantile,
// with relative error < 1.15e-9 before refinement.
func acklam(p float64) float64 {
	var (
		a = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
			-2.759285104469687e+02, 1.383577518672690e+02,
			-3.066479806614716e+01, 2.506628277459239e+00}
		b = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
			-1.556989798598866e+02, 6.680131188771972e+01,
			-1.328068155288572e+01}
		c = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
			-2.400758277161838e+00, -2.549732539343734e+00,
			4.374664141464968e+00, 2.938163982698783e+00}
		d = [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
			2.445134137142996e+00, 3.754408661907416e+00}
	)
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// Normal is a scalar Normal distribution with location Mu and scale Sigma.
type Normal struct {
	Mu, Sigma float64
}

// PDF returns the density at x.
func (n Normal) PDF(x float64) float64 { return NormPDF((x-n.Mu)/n.Sigma) / n.Sigma }

// CDF returns the cumulative probability at x.
func (n Normal) CDF(x float64) float64 { return NormCDF((x - n.Mu) / n.Sigma) }

// Quantile returns the p-quantile.
func (n Normal) Quantile(p float64) float64 { return n.Mu + n.Sigma*NormQuantile(p) }
