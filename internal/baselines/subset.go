package baselines

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"

	"repro/internal/mc"
	"repro/internal/stat"
	"repro/internal/telemetry"
)

// Subset simulation — the sequential-sampling family the paper cites as
// [13] (Katayama et al., sequential importance sampling). The failure
// probability is decomposed into a product of conditional probabilities
// over a descending ladder of intermediate margin levels,
//
//	P(M < 0) = P(M < L₁) · Π_k P(M < L_{k+1} | M < L_k),
//
// each estimated from a particle population evolved by a
// Metropolis-within-Gibbs random walk conditioned on the current level.
// Levels are chosen adaptively as the p0-quantile of the population, so
// every stage solves a moderate-probability problem.

// SubsetOptions configures subset simulation.
type SubsetOptions struct {
	// Particles per stage (default 500).
	Particles int
	// P0 is the conditional level probability (default 0.1).
	P0 float64
	// MaxStages bounds the ladder (default 12).
	MaxStages int
	// Step is the random-walk proposal σ (default 0.8).
	Step float64
	// Workers sizes the evaluation pool (0 = GOMAXPROCS): the stage-0
	// population evaluates sample-parallel and each level's seed chains
	// walk chain-parallel. Estimates are identical for every pool size.
	Workers int
	// Telemetry, when non-nil, observes the evaluation pool; estimates
	// are unchanged.
	Telemetry *telemetry.Registry
}

// SubsetResult reports the estimate and ladder diagnostics.
type SubsetResult struct {
	mc.Result
	// Levels is the adaptive margin ladder (descending, ending at 0).
	Levels []float64
	// Sims is the total simulation count.
	Sims int64
}

type particle struct {
	x []float64
	m float64 // cached margin
}

// subsetChunk bounds one population dispatch: the stage-0 population
// and each level's chain fan-out run chunk by chunk with a cancellation
// check between chunks. Chunking never changes the populations because
// every particle/chain draws from a generator seeded by its absolute
// index.
const subsetChunk = 1 << 12

// SubsetContext runs subset simulation on the metric. ctx is polled
// between population chunks and between chain-dispatch chunks, so a
// cancel aborts within one chunk while an uncancelled ladder stays
// bit-identical for every worker count.
func SubsetContext(ctx context.Context, counter *mc.Counter, opts SubsetOptions, rng *rand.Rand) (*SubsetResult, error) {
	n := opts.Particles
	if n <= 0 {
		n = 500
	}
	p0 := opts.P0
	if p0 <= 0 || p0 >= 1 {
		p0 = 0.1
	}
	maxStages := opts.MaxStages
	if maxStages <= 0 {
		maxStages = 12
	}
	step := opts.Step
	if step <= 0 {
		step = 0.8
	}
	dim := counter.Dim()
	keep := int(math.Round(p0 * float64(n)))
	if keep < 2 {
		return nil, errors.New("baselines: subset needs p0·particles ≥ 2")
	}

	// Stage 0: plain Monte Carlo population, evaluated sample-parallel
	// in subsetChunk dispatches.
	ev := mc.NewEvaluator(counter, opts.Workers).WithTelemetry(opts.Telemetry)
	popSeed := rng.Int63()
	pop := make([]particle, 0, n)
	for start := 0; start < n; start += subsetChunk {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		count := min(subsetChunk, n-start)
		pop = append(pop, mc.Map(ev, popSeed, start, count, func(rng *rand.Rand, _ int) particle {
			x := make([]float64, dim)
			for j := range x {
				x[j] = rng.NormFloat64()
			}
			return particle{x: x, m: counter.Value(x)}
		})...)
	}

	res := &SubsetResult{}
	logPf := 0.0
	for stage := 0; stage < maxStages; stage++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sort.Slice(pop, func(i, j int) bool { return pop[i].m < pop[j].m })
		// Count how many particles already fail outright.
		nFail := sort.Search(len(pop), func(i int) bool { return pop[i].m >= 0 })
		if nFail >= keep {
			// Final stage: the failure fraction is a plain estimate.
			logPf += math.Log(float64(nFail) / float64(n))
			res.Levels = append(res.Levels, 0)
			return finishSubset(res, counter, logPf, n, len(res.Levels))
		}
		// Intermediate level at the p0-quantile of the margins. The
		// early levels are positive (relaxed specs); the ladder descends
		// toward the true level 0.
		level := pop[keep-1].m
		res.Levels = append(res.Levels, level)
		logPf += math.Log(p0)

		// Seed the next population from the keepers by
		// Metropolis-within-Gibbs conditioned on M < level: each of the
		// keep seeds runs a chain of n/keep states (repeats on rejected
		// moves, standard subset-simulation MCMC). Chains are mutually
		// independent, so they walk on the pool in parallel — each with a
		// generator seeded by its chain index, keeping the populations
		// identical for every worker count.
		seeds := pop[:keep]
		chainLen := n / keep
		walk := func(rng *rand.Rand, c int) []particle {
			cur := seeds[c]
			walker := particle{x: append([]float64(nil), cur.x...), m: cur.m}
			states := make([]particle, 0, chainLen)
			for s := 0; s < chainLen; s++ {
				prop := append([]float64(nil), walker.x...)
				// Component-wise Normal random walk with the standard
				// Normal target: accept with min(1, φ(y)/φ(x)) and then
				// enforce the conditioning event.
				for j := range prop {
					cand := prop[j] + step*rng.NormFloat64()
					logAccept := 0.5 * (prop[j]*prop[j] - cand*cand)
					if math.Log(rng.Float64()+1e-300) < logAccept {
						prop[j] = cand
					}
				}
				m := counter.Value(prop)
				if m < level {
					walker = particle{x: prop, m: m}
				}
				states = append(states, walker)
			}
			return states
		}
		chainSeed := rng.Int63()
		next := make([]particle, 0, n)
		for start := 0; start < keep; start += subsetChunk {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			count := min(subsetChunk, keep-start)
			for _, states := range mc.Map(ev, chainSeed, start, count, walk) {
				next = append(next, states...)
			}
		}
		// Round-off from n/keep: top up by continuing the last chain.
		for len(next) < n {
			next = append(next, next[len(next)-1])
		}
		pop = next
	}
	return nil, errors.New("baselines: subset simulation did not reach the failure level")
}

func finishSubset(res *SubsetResult, counter *mc.Counter, logPf float64, n, stages int) (*SubsetResult, error) {
	pf := math.Exp(logPf)
	// Delta-method error bar: each stage contributes roughly
	// (1−p0)/(p0·n) of squared coefficient of variation; correlated
	// chains inflate it, so this is a lower bound the caller should
	// treat as indicative (standard subset-simulation practice).
	cv2 := 0.0
	for s := 0; s < stages; s++ {
		cv2 += (1 - 0.1) / (0.1 * float64(n))
	}
	se := pf * math.Sqrt(cv2)
	rel := math.Inf(1)
	if pf > 0 {
		rel = stat.Z99 * se / pf
	}
	res.Result = mc.Result{Pf: pf, StdErr: se, RelErr99: rel, N: n * stages}
	res.Sims = counter.Count()
	return res, nil
}
