// Package baselines implements the two traditional importance-sampling
// methods the paper compares against:
//
//   - MIS, mixture importance sampling (Kanj, Joshi, Nassif, DAC 2006
//     [8]): a broad first-stage exploration of the variation space
//     locates failing samples; their f-weighted centroid becomes the mean
//     of a mean-shifted Normal distortion.
//   - MNIS, minimum-norm importance sampling (Qazi et al., DATE 2010
//     [14], after Dolecek et al. [10]): a model-based norm minimization
//     finds the most-likely failure point, which becomes the mean of the
//     distortion.
//
// Both construct g^NOR = N(μ, I): as the paper stresses (§V-A), "these
// two traditional methods only identify the mean value of g^OPT(x),
// while the covariance matrix is completely ignored" — the property that
// the Gibbs two-stage flow improves on.
package baselines

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/mc"
	"repro/internal/model"
	"repro/internal/stat"
	"repro/internal/telemetry"
)

// ErrNoFailures is returned when the MIS exploration stage finds no
// failing sample (the budget or spread is too small for the failure
// rate).
var ErrNoFailures = errors.New("baselines: first stage found no failures")

// Result reports a baseline estimate with the paper's stage accounting.
type Result struct {
	mc.Result
	// Mean is the distortion mean found by the first stage.
	Mean []float64
	// GNor is the mean-shifted unit-covariance distortion.
	GNor *stat.MVNormal
	// Stage1Sims and Stage2Sims split the simulation cost.
	Stage1Sims, Stage2Sims int64
}

// runStage2 runs the importance-sampling stage behind res and records
// its cost.
func (res *Result) runStage2(ctx context.Context, counter *mc.Counter, st *mc.Stage, target float64, trace mc.TraceEvery) error {
	var err error
	if res.Result, err = st.Run(ctx, target, trace); err != nil {
		return err
	}
	res.Stage2Sims = counter.Count() - res.Stage1Sims
	return nil
}

// MISOptions configures mixture importance sampling.
type MISOptions struct {
	// Stage1 is the number of exploratory simulations (paper Table I:
	// 5000).
	Stage1 int
	// N is the number of second-stage importance samples, or their cap
	// when Target is set.
	N int
	// Target, when positive, stops the second stage at the first chunk
	// boundary where the 99% relative error reaches it (Table I).
	Target float64
	// Workers sizes the evaluation pool for both stages
	// (0 = GOMAXPROCS); the estimate is identical for every pool size.
	Workers int
	// TraceEvery records second-stage convergence snapshots (0 off).
	TraceEvery mc.TraceEvery
	// Telemetry, when non-nil, observes both stages (throughput counters,
	// chunk latencies, estimator progress); estimates are unchanged.
	Telemetry *telemetry.Registry
}

// MIS draws its stage-1 exploratory samples from N(0, misSpread²·I)
// and U(−misURange, misURange) as a 50/50 mixture.
const (
	misSpread = 3
	misURange = 6
)

// MISContext runs mixture importance sampling: explore, take the
// f-weighted centroid of the failing samples as the distortion mean, and
// run the second importance-sampling stage with unit covariance. ctx is
// polled once per evaluation chunk in both stages, so a cancel aborts
// within one chunk while an uncancelled run stays bit-identical for
// every worker count.
func MISContext(ctx context.Context, counter *mc.Counter, opts MISOptions, rng *rand.Rand) (*Result, error) {
	res, st, err := MISPrefix(ctx, counter, opts, rng)
	if err != nil {
		return nil, err
	}
	return res, res.runStage2(ctx, counter, st, opts.Target, opts.TraceEvery)
}

// MNISOptions configures minimum-norm importance sampling.
type MNISOptions struct {
	// Start tunes the model-based norm minimization; its TrainN is the
	// stage-1 budget (paper Table I: 1000).
	Start *model.StartOptions
	// N is the number of second-stage importance samples, or their cap
	// when Target is set.
	N int
	// Target, when positive, stops the second stage at the first chunk
	// boundary where the 99% relative error reaches it (Table I).
	Target float64
	// TraceEvery records second-stage convergence snapshots (0 off).
	TraceEvery mc.TraceEvery
	// Workers sizes the second-stage evaluation pool (0 = GOMAXPROCS);
	// the norm-minimization first stage is sequential.
	Workers int
	// Telemetry, when non-nil, observes the second stage; estimates are
	// unchanged.
	Telemetry *telemetry.Registry
}

// MNISContext runs minimum-norm importance sampling: find the
// minimum-norm failure point with a fitted performance model (plus
// simulation-verified ray refinement), then run the mean-shifted
// unit-covariance second stage. ctx is polled between norm-minimization
// training simulations and once per second-stage evaluation chunk.
func MNISContext(ctx context.Context, counter *mc.Counter, opts MNISOptions, rng *rand.Rand) (*Result, error) {
	res, st, err := MNISPrefix(ctx, counter, opts, rng)
	if err != nil {
		return nil, err
	}
	return res, res.runStage2(ctx, counter, st, opts.Target, opts.TraceEvery)
}

// MNISPrefix runs the MNIS first stage — the model-based norm
// minimization, under a "stage1" span — and returns it with the
// importance-sampling second stage ready to run. It is the replicated
// prefix of a distributed run; MNISContext runs the stage on top of it.
func MNISPrefix(ctx context.Context, counter *mc.Counter, opts MNISOptions, rng *rand.Rand) (*Result, *mc.Stage, error) {
	if opts.N <= 0 {
		return nil, nil, errors.New("baselines: MNIS sample count must be positive")
	}
	spanCtx, span := telemetry.StartSpan(ctx, opts.Telemetry, "stage1")
	span.SetAttr("method", "mnis")
	mean, err := model.FindFailurePointContext(spanCtx, counter, opts.Start, rng)
	span.SetAttr("sims", counter.Count())
	span.End()
	if err != nil {
		if ctx.Err() != nil {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("baselines: MNIS norm minimization: %w", err)
	}
	return shiftedStage(counter, mc.NewEvaluator(counter, opts.Workers).WithTelemetry(opts.Telemetry), mean, opts.N, rng)
}

// shiftedStage closes a baseline's first stage around the
// unit-covariance distortion N(mean, I) both baselines sample from, and
// builds the n-sample importance-sampling stage over it on ev.
func shiftedStage(counter *mc.Counter, ev *mc.Evaluator, mean []float64, n int, rng *rand.Rand) (*Result, *mc.Stage, error) {
	gnor, err := stat.NewMVNormal(mean, linalg.Identity(len(mean)))
	if err != nil {
		return nil, nil, err
	}
	st, err := mc.ImportanceStage(ev, gnor, n, rng)
	if err != nil {
		return nil, nil, err
	}
	return &Result{Mean: mean, GNor: gnor, Stage1Sims: counter.Count()}, st, nil
}

// MISPrefix runs the MIS exploration stage and returns it with the
// importance-sampling second stage ready to run. The exploratory
// simulations run on the evaluation pool in ChunkSize dispatches — ctx
// is polled between chunks, never inside — and the f-weighted centroid
// is accumulated in sample-index order, so it is bit-identical for every
// worker count and for any chunking. It is the replicated prefix of a
// distributed run; MISContext runs the stage on top of it.
func MISPrefix(ctx context.Context, counter *mc.Counter, o MISOptions, rng *rand.Rand) (*Result, *mc.Stage, error) {
	if o.Stage1 <= 0 {
		return nil, nil, errors.New("baselines: MIS stage sizes must be positive")
	}
	if o.N <= 0 {
		return nil, nil, errors.New("baselines: MIS sample count must be positive")
	}
	ctx, span := telemetry.StartSpan(ctx, o.Telemetry, "stage1")
	defer span.End()
	span.SetAttr("method", "mis")
	span.SetAttr("stage1", o.Stage1)
	dim := counter.Dim()
	ev := mc.NewEvaluator(counter, o.Workers).WithTelemetry(o.Telemetry)
	draw := func(rng *rand.Rand, _ int) []float64 {
		x := make([]float64, dim)
		if rng.Intn(2) == 0 {
			for j := range x {
				x[j] = misSpread * rng.NormFloat64()
			}
		} else {
			for j := range x {
				x[j] = misURange * (2*rng.Float64() - 1)
			}
		}
		return x
	}
	seed := rng.Int63()
	mean := make([]float64, dim)
	wsum := 0.0
	for start := 0; start < o.Stage1; start += mc.ChunkSize {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		count := min(mc.ChunkSize, o.Stage1-start)
		for _, s := range ev.Batch(seed, start, count, draw) {
			if s.Value < 0 {
				w := stat.StdNormPDF(s.X)
				wsum += w
				for j, v := range s.X {
					mean[j] += w * v
				}
			}
		}
	}
	span.SetAttr("sims", counter.Count())
	//reprolint:ignore floateq wsum is exactly 0 iff no failing sample contributed a weight; sentinel for "no failures seen"
	if wsum == 0 {
		return nil, nil, ErrNoFailures
	}
	linalg.Scale(mean, 1/wsum)
	return shiftedStage(counter, ev, mean, o.N, rng)
}
