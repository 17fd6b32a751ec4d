package mc

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"repro/internal/stat"
)

// ErrBadSampleCount is returned when an estimator is asked for a
// non-positive number of samples.
var ErrBadSampleCount = errors.New("mc: sample count must be positive")

// TracePoint records an estimator's state after n samples; sequences of
// TracePoints regenerate the paper's convergence figures (Figs. 6, 7, 12).
type TracePoint struct {
	// N is the number of samples (transistor-level simulations in this
	// stage) consumed so far.
	N int
	// Estimate is the running failure-probability estimate.
	Estimate float64
	// RelErr99 is the paper's accuracy metric: the half-width of the 99%
	// confidence interval divided by the estimate (+Inf while the
	// estimate is zero).
	RelErr99 float64
}

// Result is the outcome of a Monte Carlo or importance-sampling run.
type Result struct {
	// Pf is the estimated failure probability.
	Pf float64
	// StdErr is the standard error of Pf.
	StdErr float64
	// RelErr99 is stat.Z99·StdErr/Pf (+Inf if Pf is 0).
	RelErr99 float64
	// N is the number of samples drawn in this stage.
	N int
	// Failures is the number of samples that fell in the failure region.
	Failures int
	// WeightESS is the effective sample size of the importance weights,
	// (Σw)²/Σw² (Kish). For plain Monte Carlo it equals the failure
	// count; for importance sampling it is the standard diagnostic of
	// distortion quality — a tiny ESS with a confident CI flags the
	// §V-B failure mode where g misses part of the failure region.
	WeightESS float64
	// MaxWeight is the largest importance weight observed (0 for plain
	// Monte Carlo or when no sample failed).
	MaxWeight float64
	// TopWeights holds the largest nonzero importance weights in
	// descending order (at most maxTopWeights of them) — the input to
	// the run-report's weight-tail diagnostics. Nil for plain MC.
	TopWeights []float64
	// Trace holds convergence snapshots if tracing was requested.
	Trace []TracePoint
}

// TraceEvery returns a trace-recording stride: 0 disables tracing,
// otherwise a snapshot is stored every stride samples.
type TraceEvery int

// Distortion is a sampling distribution usable as the importance
// distribution g(x): the Normal g^NOR of Algorithm 5, or richer families
// such as the Gaussian mixture of the paper's §IV-C extension. Sample and
// LogPDF must be safe for concurrent use — the second stage evaluates
// them from the Evaluator's worker pool.
type Distortion interface {
	Dim() int
	LogPDF(x []float64) float64
	Sample(rng *rand.Rand) []float64
}

// maxTopWeights bounds how many of the largest weights the estimator
// keeps for the run-report's tail diagnostics.
const maxTopWeights = 32

// topWeights tracks the largest nonzero importance weights seen, in
// descending order. Weights arrive in index order (the stage fold), so the
// tracked set — like everything else in the reduction — is identical for
// every worker count.
type topWeights struct {
	w []float64
}

func (t *topWeights) push(w float64) {
	if w <= 0 {
		return
	}
	if len(t.w) == maxTopWeights && w <= t.w[maxTopWeights-1] {
		return
	}
	// Insertion point in the descending order: first index with a
	// smaller value (ties keep the earlier arrival first).
	i := 0
	for i < len(t.w) && t.w[i] >= w {
		i++
	}
	if len(t.w) < maxTopWeights {
		t.w = append(t.w, 0)
	}
	copy(t.w[i+1:], t.w[i:])
	t.w[i] = w
}

func (t *topWeights) max() float64 {
	if len(t.w) == 0 {
		return 0
	}
	return t.w[0]
}

// ImportanceStage builds the importance-sampling stage of n samples from
// the distorted distribution g: each failure is weighted by f(x)/g(x)
// (paper eqs. 7 and 33), f being the standard Normal of eq. (1). The
// weight is computed in log space — the ratio of a deep tail density to
// a shifted density overflows naive division. The simulations run on
// ev's pool, scalar or batched as the dispatcher decides. The stage
// consumes exactly one seed draw from rng, so a caller that replays the
// preceding pipeline (chain, fits, exploration) sees the identical
// per-sample stream.
func ImportanceStage(ev *Evaluator, g Distortion, n int, rng *rand.Rand) (*Stage, error) {
	if ev == nil {
		return nil, errors.New("mc: nil evaluator")
	}
	if n <= 0 {
		return nil, ErrBadSampleCount
	}
	if g.Dim() != ev.Dim() {
		return nil, errors.New("mc: distortion dimensionality does not match metric")
	}
	seed := rng.Int63()
	draw := func(rng *rand.Rand, _ int) []float64 { return g.Sample(rng) }
	type outcome struct {
		w    float64
		fail bool
	}
	post := func(_ int, x []float64, v float64) outcome {
		if v < 0 {
			return outcome{w: math.Exp(stat.StdNormLogPDF(x) - g.LogPDF(x)), fail: true}
		}
		return outcome{}
	}
	eval := func(lo, hi int) Partial {
		p := Partial{Start: lo, Count: hi - lo, Sims: int64(hi - lo)}
		for j, s := range MapBatch(ev, seed, lo, hi-lo, draw, post) {
			if s.fail {
				p.FailIdx = append(p.FailIdx, lo+j)
				p.W = append(p.W, s.w)
			}
		}
		return p
	}
	return &Stage{Fold: FoldWeights, N: n, Chunk: ChunkSize, Eval: eval, Progress: ev.Telemetry()}, nil
}

// ImportanceSampleContext estimates Pf by importance sampling n draws
// from g (see ImportanceStage). The estimate is identical for every
// worker count; ctx is polled once per dispatched chunk, never inside
// the hot sample loop, so a cancel aborts within one chunk of ChunkSize
// simulations.
func ImportanceSampleContext(ctx context.Context, ev *Evaluator, g Distortion, n int, rng *rand.Rand, traceEvery TraceEvery) (Result, error) {
	st, err := ImportanceStage(ev, g, n, rng)
	if err != nil {
		return Result{}, err
	}
	return st.Run(ctx, 0, traceEvery)
}

// ImportanceSampleUntilContext draws samples from g until the 99%
// relative error drops to target or maxN samples are spent — the paper's
// "number of simulations to reach 5% error" experiments (Table I)
// without fixing N in advance. minN guards against spuriously early
// convergence claims from the first few weights. The convergence test
// runs at chunk boundaries, so the stopping point — and with it Pf, N
// and Failures — is the same for every worker count, and the result is
// bit-identical to a fixed run of that many samples.
func ImportanceSampleUntilContext(ctx context.Context, ev *Evaluator, g Distortion, target float64, minN, maxN int, rng *rand.Rand) (Result, error) {
	if minN < 0 {
		return Result{}, ErrBadSampleCount
	}
	st, err := ImportanceStage(ev, g, maxN, rng)
	if err != nil {
		return Result{}, err
	}
	return st.run(ctx, target, minN, 0)
}
