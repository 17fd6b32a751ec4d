package gibbs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/mc"
	"repro/internal/stat"
)

// ErrStartNotFailing is returned when a chain is started outside the
// failure region: Gibbs sampling of g^OPT requires a failing start
// (Algorithm 4 provides one).
var ErrStartNotFailing = errors.New("gibbs: starting point is not in the failure region")

// CartesianChainContext runs the paper's Algorithm 1: starting from a
// failure point, it repeatedly resamples one Cartesian coordinate at a
// time from the 1-D conditional g^OPT(x_m | x_\m) — a truncated standard
// Normal over the coordinate's failure interval, sampled by inverse
// transform (Algorithm 3). Every coordinate update appends one sample, so
// the returned slice has exactly k samples (k simulations ≫ k because
// each update brackets and refines its interval's two edges).
//
// The k samples come from opts.Chains independent chains (default 2),
// all started from start and pooled in chain order; see runChains for
// how they split k, the budget, the workers and rng. With nil options
// the chains run one after another on the caller's goroutine.
//
// ctx is polled before each coordinate update (one update is a handful
// of bracketing and refinement simulations — the chain's natural
// chunk), so a cancel aborts promptly with the context's error.
func CartesianChainContext(ctx context.Context, metric mc.Metric, start []float64, k int, opts *Options, rng *rand.Rand) ([][]float64, error) {
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
	return runChains(ctx, Cartesian, cartesianCoordNames(dim), k, &o, rng, func(ctx context.Context, run *chainRun) ([][]float64, error) {
		return cartesianChain(ctx, run, metric, start)
	})
}

// cartesianChain runs one chain of Algorithm 1 from start, which it does
// not modify.
func cartesianChain(ctx context.Context, run *chainRun, metric mc.Metric, start []float64) ([][]float64, error) {
	dim := len(start)
	x := linalg.CopyVec(start)
	samples := make([][]float64, 0, run.k)
	m := 0
	// Each side of an interval search probes its own copy of x (the two
	// edges may be searched at once); x changes only after the join.
	pts := [2][]float64{make([]float64, dim), make([]float64, dim)}
	probe := func(side int, t float64) float64 {
		p := pts[side]
		p[m] = t
		return metric.Value(p)
	}
	for len(samples) < run.k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if run.exhausted(len(samples)) {
			break
		}
		copy(pts[0], x)
		copy(pts[1], x)
		u, v, st, probes := failureIntervalStat(probe, x[m], -zeta, zeta, normalLaw, &run.o)
		if st != intervalNone {
			x[m] = stat.TruncNormSample(u, v, uniform01(run.rng))
		}
		run.record(m, st, probes)
		// Paper Algorithm 1 line 5: each coordinate draw creates a new
		// sampling point (even when the recovery scan found nothing and
		// the coordinate kept its value).
		samples = append(samples, linalg.CopyVec(x))
		m = (m + 1) % dim
	}
	return samples, nil
}
