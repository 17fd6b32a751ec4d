package mc

import (
	"context"
	"math/rand"

	"repro/internal/telemetry"
)

// mcChunk bounds the per-dispatch memory of the brute-force engine: the
// golden reference runs millions of samples, so indicators are tallied
// chunk by chunk instead of being held all at once.
const mcChunk = 1 << 16

// BruteForceStage builds the brute-force Monte Carlo stage of n samples
// from the process-variation distribution f(x) = N(0, I) (paper eq. 5):
// sample i draws from a generator seeded by (seed, i) on ev's pool, and
// the tally is the closed-form Bernoulli fold. The metric must be safe
// for concurrent use; the estimate is bit-identical for every worker
// count.
func BruteForceStage(ev *Evaluator, n int, seed int64) *Stage {
	dim := ev.Dim()
	draw := func(rng *rand.Rand, _ int) []float64 {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		return x
	}
	post := func(_ int, _ []float64, v float64) bool { return v < 0 }
	eval := func(lo, hi int) Partial {
		p := FailPartial(lo, MapBatch(ev, seed, lo, hi-lo, draw, post))
		p.Sims = int64(hi - lo)
		return p
	}
	return &Stage{Fold: FoldCount, N: n, Chunk: mcChunk, Eval: eval, Progress: ev.Telemetry()}
}

// ParallelMCContext runs brute-force Monte Carlo (BruteForceStage) on a
// pool of the given size (workers 0 = GOMAXPROCS) with an optional
// telemetry registry. It powers the Table II golden reference (the
// paper's 8.7-million-sample run). ctx is polled once per dispatched
// chunk (64k samples).
func ParallelMCContext(ctx context.Context, metric Metric, n int, seed int64, workers int, reg *telemetry.Registry) (Result, error) {
	return BruteForceStage(NewEvaluator(metric, workers).WithTelemetry(reg), n, seed).Run(ctx, 0, 0)
}
