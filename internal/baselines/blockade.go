package baselines

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"repro/internal/mc"
	"repro/internal/model"
	"repro/internal/stat"
	"repro/internal/telemetry"
)

// Statistical blockade (Singhee & Rutenbar, DATE 2007 — the paper's
// reference [9]): train a cheap classifier on a moderate Monte Carlo
// sample, then run a huge Monte Carlo stream but *simulate only the
// samples the classifier cannot confidently pass* ("unblocked"). The
// failure estimate is the plain MC tally with blocked samples counted as
// passes; the simulation count collapses because the classifier filters
// out the bulk of the distribution.
//
// This implementation uses a linear response surface as the classifier
// with a conservative guard band, which matches the library's other
// model-based stages and keeps the method honest: a guard band that is
// too tight silently biases the estimate low, which the Blockade result
// reports through the Unblocked/Misblocked diagnostics.

// BlockadeOptions configures the run.
type BlockadeOptions struct {
	// Train is the number of training simulations (default 1000).
	Train int
	// N is the number of Monte Carlo candidates streamed through the
	// classifier (classifier evaluations are free; only unblocked
	// candidates cost a simulation), or their cap when Target is set.
	N int
	// Target, when positive, stops the candidate stream at the first
	// chunk boundary where the 99% relative error reaches it.
	Target float64
	// GuardSigmas widens the classification threshold: a candidate is
	// simulated when its predicted margin is below GuardSigmas times the
	// training residual σ (default 3).
	GuardSigmas float64
	// TrainScale is the σ-multiplier of the training distribution
	// (default 2). Strongly curved metrics benefit from a tighter
	// training cloud: the linear classifier's residual — and with it the
	// guard band and the unblocked fraction — shrinks.
	TrainScale float64
	// Workers sizes the evaluation pool (0 = GOMAXPROCS) for the
	// training batch and the candidate stream; the estimate is identical
	// for every pool size.
	Workers int
	// Telemetry, when non-nil, observes the evaluation pool and the
	// candidate stream's progress; estimates are unchanged.
	Telemetry *telemetry.Registry
}

// BlockadeResult reports the estimate and its cost split.
type BlockadeResult struct {
	mc.Result
	// TrainSims and TailSims split the simulation cost; Unblocked is the
	// number of candidates that needed simulation.
	TrainSims, TailSims int64
	// ResidualSigma is the training residual of the classifier — large
	// values mean the linear blockade filter is untrustworthy.
	ResidualSigma float64
}

// blockadeChunk bounds one candidate-stream dispatch: the stream runs
// millions of classifier-filtered candidates, so it is tallied chunk by
// chunk with a cancellation check between chunks.
const blockadeChunk = 1 << 16

// BlockadePrefix runs the training stage and classifier fit, consuming
// rng in a fixed order (train seed, then stream seed), and returns them
// with the candidate stream ready to run. The stream is the replicated
// prefix's terminal stage: classifier evaluations are free and happen
// for every candidate, only unblocked candidates cost a simulation, and
// each candidate draws from its own indexed generator, so a range's
// outcome — including its simulation count — is deterministic.
func BlockadePrefix(ctx context.Context, counter *mc.Counter, opts BlockadeOptions, rng *rand.Rand) (*BlockadeResult, *mc.Stage, error) {
	train := opts.Train
	if train <= 0 {
		train = 1000
	}
	if opts.N <= 0 {
		return nil, nil, errors.New("baselines: blockade needs a positive candidate count")
	}
	guard := opts.GuardSigmas
	if guard <= 0 {
		guard = 3
	}
	scale := opts.TrainScale
	if scale <= 0 {
		scale = 2
	}
	dim := counter.Dim()

	// Training set: widened Normal sampling so the tail side of the spec
	// is represented, evaluated sample-parallel in chunks.
	ev := mc.NewEvaluator(counter, opts.Workers).WithTelemetry(opts.Telemetry)
	trainDraw := func(rng *rand.Rand, _ int) []float64 {
		x := make([]float64, dim)
		for j := range x {
			x[j] = scale * rng.NormFloat64()
		}
		return x
	}
	trainSeed := rng.Int63()
	xs := make([][]float64, 0, train)
	ys := make([]float64, 0, train)
	for start := 0; start < train; start += mc.ChunkSize {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		count := min(mc.ChunkSize, train-start)
		for _, s := range ev.Batch(trainSeed, start, count, trainDraw) {
			xs = append(xs, s.X)
			ys = append(ys, s.Value)
		}
	}
	lin, err := model.FitLinear(xs, ys)
	if err != nil {
		return nil, nil, err
	}
	// Residual spread sets the guard band.
	var resid stat.Running
	for i, x := range xs {
		resid.Push(ys[i] - lin.Eval(x))
	}
	sigma := residSigma(&resid)
	res := &BlockadeResult{TrainSims: counter.Count(), ResidualSigma: sigma}

	band := guard * sigma
	streamSeed := rng.Int63()
	candidate := func(rng *rand.Rand, _ int) bool {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		// Unblocked: needs a real simulation.
		return lin.Eval(x) < band && counter.Value(x) < 0
	}
	eval := func(lo, hi int) mc.Partial {
		before := counter.Count()
		p := mc.FailPartial(lo, mc.Map(ev, streamSeed, lo, hi-lo, candidate))
		p.Sims = counter.Count() - before
		return p
	}
	return res, &mc.Stage{Fold: mc.FoldTally, N: opts.N, Chunk: blockadeChunk, Eval: eval, Progress: ev.Telemetry()}, nil
}

// BlockadeContext runs statistical blockade against a metric: the
// training prefix, then the candidate stream folded as a plain Monte
// Carlo tally with blocked candidates counted as passes. ctx is polled
// between training chunks and between candidate-stream chunks, so a
// cancel aborts within one chunk while an uncancelled run stays
// bit-identical for every worker count.
func BlockadeContext(ctx context.Context, counter *mc.Counter, opts BlockadeOptions, rng *rand.Rand) (*BlockadeResult, error) {
	res, st, err := BlockadePrefix(ctx, counter, opts, rng)
	if err != nil {
		return nil, err
	}
	if res.Result, err = st.Run(ctx, opts.Target, 0); err != nil {
		return nil, err
	}
	res.TailSims = counter.Count() - res.TrainSims
	return res, nil
}

func residSigma(r *stat.Running) float64 {
	v := r.Var()
	if v <= 0 {
		return 1e-9
	}
	return sqrt(v)
}

func sqrt(v float64) float64 { return math.Sqrt(v) }
