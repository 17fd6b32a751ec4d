package gibbs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/mc"
	"repro/internal/stat"
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
// The k samples come from opts.Chains independent chains (default 2),
// all started from start and pooled in chain order; see runChains for
// how they split k, the budget, the workers and rng. With nil options
// the chains run one after another on the caller's goroutine.
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
	// The radius is bounded by the Chi(M) quantile at 1−1e−12, plus 2.
	rmax := stat.Chi{K: dim}.Quantile(1-1e-12) + 2
	return runChains(ctx, Spherical, sphericalCoordNames(dim), k, &o, rng, func(ctx context.Context, run *chainRun) ([][]float64, error) {
		return sphericalChain(ctx, run, metric, r, alpha, rmax)
	})
}

// sphericalChain runs one chain of Algorithm 2 from the spherical point
// (r, alpha), which it does not modify.
func sphericalChain(ctx context.Context, run *chainRun, metric mc.Metric, r float64, alpha0 []float64, rmax float64) ([][]float64, error) {
	dim := len(alpha0)
	alpha := linalg.CopyVec(alpha0)
	cur := func() []float64 {
		x, err := CartesianFromSpherical(r, alpha)
		if err != nil {
			// ‖α‖ can only vanish if every α_m was driven to zero, which
			// truncated-Normal draws cannot do exactly.
			panic("gibbs: orientation collapsed to zero")
		}
		return x
	}

	samples := make([][]float64, 0, run.k)
	radiusLaw := chiLaw(dim)
	coord := -1 // -1 = radius, 0..M-1 = α index, cycled in Algorithm 2 order
	// Each side of an interval search probes its own copy of alpha (the
	// two edges may be searched at once); r and alpha change only after
	// the join.
	as := [2][]float64{make([]float64, dim), make([]float64, dim)}
	probe := func(side int, t float64) float64 {
		a := as[side]
		if coord == -1 {
			return sphericalMargin(metric, t, a)
		}
		a[coord] = t
		return sphericalMargin(metric, r, a)
	}
	for len(samples) < run.k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if run.exhausted(len(samples)) {
			break
		}
		copy(as[0], alpha)
		copy(as[1], alpha)
		t0, lo, hi, law := r, 0.0, rmax, radiusLaw
		if coord >= 0 {
			t0, lo, hi, law = alpha[coord], -zeta, zeta, normalLaw
		}
		u, v, st, probes := failureIntervalStat(probe, t0, lo, hi, law, &run.o)
		if st != intervalNone {
			if coord == -1 {
				r = stat.TruncChiSample(dim, u, v, uniform01(run.rng))
			} else {
				alpha[coord] = stat.TruncNormSample(u, v, uniform01(run.rng))
			}
		}
		run.record(coord+1, st, probes)
		samples = append(samples, cur())
		coord++
		if coord == dim {
			coord = -1
		}
	}
	return samples, nil
}

// sphericalMargin returns the margin at the point (r, alpha); an
// orientation that maps to no point reads +Inf, a pass.
func sphericalMargin(metric mc.Metric, r float64, alpha []float64) float64 {
	x, err := CartesianFromSpherical(r, alpha)
	if err != nil {
		return math.Inf(1)
	}
	return metric.Value(x)
}
