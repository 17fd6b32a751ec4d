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
// each update performs a bracketing/bisection search).
//
// ctx is polled before each coordinate update (one update is a handful
// of bracketing/bisection simulations — the chain's natural chunk), so a
// cancel aborts promptly with the context's error.
func CartesianChainContext(ctx context.Context, metric mc.Metric, start []float64, k int, opts *Options, rng *rand.Rand) ([][]float64, error) {
	o := opts.defaults()
	dim := metric.Dim()
	if len(start) != dim {
		return nil, fmt.Errorf("gibbs: start has %d coordinates, metric wants %d", len(start), dim)
	}
	if k <= 0 {
		return nil, errors.New("gibbs: sample count must be positive")
	}
	x := linalg.CopyVec(start)
	if !finiteVec(x) {
		return nil, fmt.Errorf("gibbs: starting point is not finite: %v", x)
	}
	if !mc.Fail(metric, x) {
		return nil, ErrStartNotFailing
	}
	ctx, span := telemetry.StartSpan(ctx, o.Telemetry, wire.EvGibbsChain)
	defer span.End()
	span.SetAttr("coord", Cartesian.String())
	updateAgg, probeAgg := span.Agg("update"), span.Agg("probe")
	ct := newChainTelemetry(o.Telemetry, cartesianCoordNames(dim), k)
	samples := make([][]float64, 0, k)
	m := 0
	for len(samples) < k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if o.Stop != nil && o.Stop() && len(samples) >= 2 {
			break
		}
		probes := 0
		probe := func(t float64) bool {
			probes++
			old := x[m]
			x[m] = t
			fail := mc.Fail(metric, x)
			x[m] = old
			return fail
		}
		u, v, st := failureIntervalStat(probe, x[m], -o.Zeta, o.Zeta, &o)
		if st != intervalNone {
			x[m] = stat.TruncNormSample(u, v, uniform01(rng))
		}
		ct.update(m, st, probes)
		updateAgg.Add(1)
		probeAgg.Add(int64(probes))
		// Paper Algorithm 1 line 5: each coordinate draw creates a new
		// sampling point (even when the recovery scan found nothing and
		// the coordinate kept its value).
		samples = append(samples, linalg.CopyVec(x))
		m = (m + 1) % dim
	}
	span.SetAttr("samples", len(samples))
	ct.done(Cartesian, samples)
	return samples, nil
}
