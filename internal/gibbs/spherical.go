package gibbs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/mc"
	"repro/internal/stat"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// SphericalCoords maps a Cartesian point to the paper's redundant
// spherical parameterization (eqs. 30 and 32): r = ‖x‖ and
// α = ε·x/r, the maximum-likelihood orientation representative
// (‖α‖ = ε → 0 maximizes f(α)).
func SphericalCoords(x []float64, eps float64) (r float64, alpha []float64, err error) {
	r = linalg.Norm2(x)
	//reprolint:ignore floateq Norm2 is exactly 0 only for the all-zero vector; degenerate-input guard
	if r == 0 {
		return 0, nil, errors.New("gibbs: cannot map the origin to spherical coordinates")
	}
	alpha = linalg.CopyVec(x)
	linalg.Scale(alpha, eps/r)
	return r, alpha, nil
}

// CartesianFromSpherical applies paper eq. (11): x = r·α/‖α‖₂.
func CartesianFromSpherical(r float64, alpha []float64) ([]float64, error) {
	n := linalg.Norm2(alpha)
	//reprolint:ignore floateq Norm2 is exactly 0 only for the all-zero vector; degenerate-input guard
	if n == 0 {
		return nil, errors.New("gibbs: zero orientation vector")
	}
	x := linalg.CopyVec(alpha)
	linalg.Scale(x, r/n)
	return x, nil
}

// SphericalChainContext runs the paper's Algorithm 2: Gibbs sampling over
// the (M+1)-dimensional redundant spherical coordinates (r, α₁…α_M).
// Each iteration first resamples the radius r from a truncated Chi(M)
// conditional, then each orientation coordinate α_m from a truncated
// standard Normal conditional; each update lets the Cartesian point slide
// along a probability contour (the arcs of Fig. 3), which is what lets
// the spherical chain traverse failure regions that trap the Cartesian
// chain (§V-B). Every coordinate update appends one sample (in Cartesian
// coordinates, ready for the Algorithm 5 fit).
//
// ctx is polled before each coordinate update (radius or orientation — a
// handful of simulations each), so a cancel aborts promptly with the
// context's error.
func SphericalChainContext(ctx context.Context, metric mc.Metric, start []float64, k int, opts *Options, rng *rand.Rand) ([][]float64, error) {
	o := opts.defaults()
	dim := metric.Dim()
	if len(start) != dim {
		return nil, fmt.Errorf("gibbs: start has %d coordinates, metric wants %d", len(start), dim)
	}
	if k <= 0 {
		return nil, errors.New("gibbs: sample count must be positive")
	}
	if !finiteVec(start) {
		return nil, fmt.Errorf("gibbs: starting point is not finite: %v", start)
	}
	if !mc.Fail(metric, start) {
		return nil, ErrStartNotFailing
	}
	r, alpha, err := SphericalCoords(start, o.Epsilon)
	if err != nil {
		return nil, err
	}
	rmax := o.rmax(dim)

	cur := func() []float64 {
		x, err := CartesianFromSpherical(r, alpha)
		if err != nil {
			// ‖α‖ can only vanish if every α_m was driven to zero, which
			// truncated-Normal draws cannot do exactly.
			panic("gibbs: orientation collapsed to zero")
		}
		return x
	}

	ctx, span := telemetry.StartSpan(ctx, o.Telemetry, wire.EvGibbsChain)
	defer span.End()
	span.SetAttr("coord", Spherical.String())
	updateAgg, probeAgg := span.Agg("update"), span.Agg("probe")
	ct := newChainTelemetry(o.Telemetry, sphericalCoordNames(dim), k)
	samples := make([][]float64, 0, k)
	record := func() { samples = append(samples, cur()) }

	coord := -1 // -1 = radius, 0..M-1 = α index, cycled in Algorithm 2 order
	for len(samples) < k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if o.Stop != nil && o.Stop() && len(samples) >= 2 {
			break
		}
		probes := 0
		if coord == -1 {
			probe := func(t float64) bool {
				probes++
				x, err := CartesianFromSpherical(t, alpha)
				if err != nil {
					return false
				}
				return mc.Fail(metric, x)
			}
			u, v, st := failureIntervalStat(probe, r, 0, rmax, &o)
			if st != intervalNone {
				r = stat.TruncChiSample(dim, u, v, uniform01(rng))
			}
			ct.update(0, st, probes)
		} else {
			m := coord
			probe := func(t float64) bool {
				probes++
				old := alpha[m]
				alpha[m] = t
				x, err := CartesianFromSpherical(r, alpha)
				alpha[m] = old
				if err != nil {
					return false
				}
				return mc.Fail(metric, x)
			}
			u, v, st := failureIntervalStat(probe, alpha[m], -o.Zeta, o.Zeta, &o)
			if st != intervalNone {
				alpha[m] = stat.TruncNormSample(u, v, uniform01(rng))
			}
			ct.update(m+1, st, probes)
		}
		updateAgg.Add(1)
		probeAgg.Add(int64(probes))
		record()
		coord++
		if coord == dim {
			coord = -1
		}
	}
	span.SetAttr("samples", len(samples))
	ct.done(Spherical, samples)
	return samples, nil
}
