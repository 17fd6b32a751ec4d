package gibbs

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
	"repro/internal/wire"
)

// Coord selects the Gibbs chain's coordinate system.
type Coord int

// Coordinate systems (the paper's G-C and G-S variants).
const (
	Cartesian Coord = iota
	Spherical
)

func (c Coord) String() string {
	switch c {
	case Cartesian:
		return "G-C"
	case Spherical:
		return "G-S"
	default:
		return fmt.Sprintf("Coord(%d)", int(c))
	}
}

// TwoStageOptions configures the paper's Algorithm 5.
type TwoStageOptions struct {
	// Coord selects Algorithm 1 (Cartesian) or Algorithm 2 (spherical)
	// for the first stage.
	Coord Coord
	// K is the number of first-stage Gibbs samples (paper: 1e2–1e3).
	K int
	// N is the number of second-stage importance-sampling simulations
	// (paper: 1e3–1e4), or their cap when Target is set.
	N int
	// Target, when positive, replaces the fixed N with a convergence
	// target: the second stage stops at the first chunk boundary where
	// the 99% relative error reaches Target, which regenerates the paper's
	// Table I ("number of simulations to achieve 5% error").
	Target float64
	// Stage1Budget, when positive, caps the whole first stage (starting
	// point search + Gibbs chains) at this many simulations, the way the
	// paper sizes its comparisons; K then acts as an upper bound on the
	// sample count. What Algorithm 4 leaves is split evenly across the
	// chains, each counting its own simulations.
	Stage1Budget int64
	// Chain tunes the Gibbs chains; nil selects defaults (two chains).
	Chain *Options
	// Start tunes the Algorithm 4 model-based starting-point search;
	// nil selects defaults.
	Start *model.StartOptions
	// StartPoint, when non-nil, skips Algorithm 4 and starts the chain
	// here (used by the ablation benchmarks).
	StartPoint []float64
	// Mixture, when ≥ 2, fits a Gaussian mixture with that many
	// components instead of the single Normal g^NOR — the paper's §IV-C
	// extension, useful on multi-lobe failure regions. 0 or 1 keeps the
	// plain Algorithm 5 fit.
	Mixture int
	// Workers sizes the second-stage evaluation pool (0 = GOMAXPROCS)
	// and the first stage's share of the cores. At 2 or more workers
	// the Gibbs chains (Chain.Chains, default 2) run at once, at most
	// Workers at a time, and a chain whose share of the workers
	// (⌊Workers/Chains⌋) is 2 or more searches the lower and upper edge
	// of an interval at once when the update's first simulation took at
	// least 20 µs. Each chain is a Markov chain, one update after
	// another, and the Algorithm 4 start-point search stays on one
	// goroutine. The samples, the simulation counts and the estimate
	// are identical for every worker count.
	Workers int
	// TraceEvery records a convergence snapshot every so many
	// second-stage samples (0 disables).
	TraceEvery mc.TraceEvery
	// Telemetry, when non-nil, observes the whole flow: chain counters
	// and mixing gauges from stage 1, evaluator throughput and running
	// Pf/error-bar gauges from stage 2, plus stage1.*/stage2.* events.
	// It never touches the random draws — estimates are bit-identical
	// with telemetry on or off.
	Telemetry *telemetry.Registry
}

// TwoStageResult reports the estimate with the paper's cost accounting.
type TwoStageResult struct {
	mc.Result
	// Start is the Algorithm 4 starting point.
	Start []float64
	// Samples are the K first-stage Gibbs samples (Cartesian
	// coordinates).
	Samples [][]float64
	// GNor is the fitted Normal distortion g^NOR(x) (always computed).
	GNor *stat.MVNormal
	// GMix is the fitted Gaussian-mixture distortion when
	// Options.Mixture ≥ 2 (nil otherwise); when present it is the
	// distribution the second stage sampled.
	GMix *stat.GMM
	// Stage1Sims and Stage2Sims split the total simulation count: stage
	// 1 covers the starting-point search plus the Gibbs chain; stage 2
	// is the importance-sampling run.
	Stage1Sims, Stage2Sims int64
}

// firstStage runs Algorithm 4 (unless a start point is given), the chosen
// Gibbs chain, and the g^NOR fit, recording stage-1 cost in res.
func firstStage(ctx context.Context, counter *mc.Counter, opts *TwoStageOptions, rng *rand.Rand) (*TwoStageResult, error) {
	if opts.K <= 0 {
		return nil, errors.New("gibbs: K must be positive")
	}
	res := &TwoStageResult{}

	ctx, span := telemetry.StartSpan(ctx, opts.Telemetry, "stage1")
	defer span.End()
	span.SetAttr("coord", opts.Coord.String())
	span.SetAttr("k", opts.K)
	opts.Telemetry.Emit(wire.EvStage1Start, map[string]any{
		"coord": opts.Coord.String(), "k": opts.K, "budget": opts.Stage1Budget,
	})
	start := opts.StartPoint
	if start == nil {
		spCtx, spSpan := telemetry.StartSpan(ctx, opts.Telemetry, "start_point")
		var err error
		start, err = model.FindFailurePointContext(spCtx, counter, opts.Start, rng)
		spSpan.SetAttr("sims", counter.Count())
		spSpan.End()
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			return nil, fmt.Errorf("gibbs: starting-point selection: %w", err)
		}
	}
	res.Start = start
	opts.Telemetry.Emit(wire.EvStage1StartPoint, map[string]any{
		"sims": counter.Count(), "norm": linalg.Norm2(start),
	})

	var co Options
	if opts.Chain != nil {
		co = *opts.Chain
	}
	if opts.Stage1Budget > 0 {
		// What Algorithm 4 left, split across the chains; at least 1, so
		// a spent budget still stops each chain at 2 samples.
		co.budget = max(opts.Stage1Budget-counter.Count(), 1)
	}
	if co.Telemetry == nil {
		co.Telemetry = opts.Telemetry
	}
	co.workers = mc.NewEvaluator(nil, opts.Workers).Workers()
	var (
		samples [][]float64
		err     error
	)
	switch opts.Coord {
	case Cartesian:
		samples, err = CartesianChainContext(ctx, counter, start, opts.K, &co, rng)
	case Spherical:
		samples, err = SphericalChainContext(ctx, counter, start, opts.K, &co, rng)
	default:
		return nil, fmt.Errorf("gibbs: unknown coordinate system %v", opts.Coord)
	}
	if err != nil {
		return nil, err
	}
	res.Samples = samples
	res.Stage1Sims = counter.Count()
	span.SetAttr("sims", res.Stage1Sims)
	opts.Telemetry.Emit(wire.EvStage1Done, map[string]any{
		"sims": res.Stage1Sims, "samples": len(samples),
	})

	_, fitSpan := telemetry.StartSpan(ctx, opts.Telemetry, "fit")
	fitSpan.SetAttr("mixture", opts.Mixture)
	defer fitSpan.End()
	res.GNor, err = FitDistortion(samples)
	if err != nil {
		return nil, err
	}
	if opts.Mixture >= 2 {
		res.GMix, err = FitDistortionGMM(samples, opts.Mixture, rng)
		if err != nil {
			return nil, fmt.Errorf("gibbs: fitting mixture distortion: %w", err)
		}
	}
	return res, nil
}

// distortion returns the distribution the second stage samples from.
func (r *TwoStageResult) distortion() mc.Distortion {
	if r.GMix != nil {
		return r.GMix
	}
	return r.GNor
}

// TwoStagePrefix runs the first stage of the paper's Algorithm 5 and
// returns it with the second stage ready to run:
//
//  1. Algorithm 4: model-based starting-point selection (skipped when
//     StartPoint is given).
//  2. Algorithm 1 or 2 (+3): generate K Gibbs samples in the failure
//     region, split across Chain.Chains independent chains from the
//     same start (default 2; Chains: 1 is the paper's single chain).
//  3. Fit the multivariate Normal g^NOR from the samples' mean and
//     covariance (or the Gaussian mixture when Mixture ≥ 2).
//
// The returned stage is step 4, importance sampling from the fitted
// distortion (eq. 33). The prefix is seeded: its chains may run at once,
// but each draws from its own stream, seeded from rng before any starts,
// and its updates run one after another (an update may probe its
// interval's two edges at once, but it draws only after both are
// found), and the samples pool in chain order. So every node that
// replays it arrives at the same distortion and the same stage-2 sample
// stream — the replicated prefix of a distributed run.
func TwoStagePrefix(ctx context.Context, counter *mc.Counter, opts TwoStageOptions, rng *rand.Rand) (*TwoStageResult, *mc.Stage, error) {
	if opts.N <= 0 {
		return nil, nil, errors.New("gibbs: N must be positive")
	}
	res, err := firstStage(ctx, counter, &opts, rng)
	if err != nil {
		return nil, nil, err
	}
	ev := mc.NewEvaluator(counter, opts.Workers).WithTelemetry(opts.Telemetry)
	start := map[string]any{"n": opts.N, "workers": ev.Workers(), "mixture": opts.Mixture}
	if opts.Target > 0 {
		start = map[string]any{
			"target": opts.Target, "min_n": mc.MinTargetN, "max_n": opts.N,
			"workers": ev.Workers(), "mixture": opts.Mixture,
		}
	}
	opts.Telemetry.Emit(wire.EvStage2Start, start)
	st, err := mc.ImportanceStage(ev, res.distortion(), opts.N, rng)
	if err != nil {
		return nil, nil, err
	}
	return res, st, nil
}

// TwoStageContext runs the paper's Algorithm 5 end to end: TwoStagePrefix
// and then its importance-sampling stage, N samples or until Target. The
// metric must be wrapped in a Counter so the stage costs can be reported
// the way the paper reports them (Tables I and II). Cancellation is
// threaded through every stage — the starting-point search, the Gibbs
// chain (checked per coordinate update) and the second stage (checked
// per evaluation chunk); an uncancelled run is bit-identical for every
// worker count.
func TwoStageContext(ctx context.Context, counter *mc.Counter, opts TwoStageOptions, rng *rand.Rand) (*TwoStageResult, error) {
	res, st, err := TwoStagePrefix(ctx, counter, opts, rng)
	if err != nil {
		return nil, err
	}
	if res.Result, err = st.Run(ctx, opts.Target, opts.TraceEvery); err != nil {
		return nil, err
	}
	res.Stage2Sims = counter.Count() - res.Stage1Sims
	return res, nil
}

// FitDistortion performs Algorithm 5 step 4: estimate the mean and
// covariance of the Gibbs samples and build the Normal approximation
// g^NOR of the optimal distortion g^OPT. Near-singular covariances (short
// or poorly mixed chains) are regularized with diagonal jitter inside
// stat.NewMVNormal.
func FitDistortion(samples [][]float64) (*stat.MVNormal, error) {
	mu, cov, err := stat.Covariance(samples)
	if err != nil {
		return nil, fmt.Errorf("gibbs: fitting g^NOR: %w", err)
	}
	return stat.NewMVNormal(mu, cov)
}

// FitDistortionGMM fits a k-component Gaussian mixture to the Gibbs
// samples (the §IV-C extension of Algorithm 5 step 4). The paper warns
// that non-Normal distortions "often require more Gibbs samples to fit";
// callers should raise K accordingly.
func FitDistortionGMM(samples [][]float64, k int, rng *rand.Rand) (*stat.GMM, error) {
	return stat.FitGMM(samples, k, 60, rng)
}
