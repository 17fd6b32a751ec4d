package mc

// The stage driver: the one chunk loop behind every terminal sampling
// stage in the library.
//
// A terminal stage — importance sampling, brute-force Monte Carlo, the
// statistical-blockade candidate stream — evaluates sample i with a
// generator seeded from (seed, i), so each outcome is a pure function of
// the sample's absolute index. The driver evaluates the stage chunk by
// chunk as Partials and pushes each into one incremental fold in index
// order. A fixed-N run, an until-target run (the stop test runs at chunk
// boundaries) and a distributed run (Partials on workers, Fold on the
// coordinator) therefore share one reduction, and the same samples give
// the same bits whichever of them ran.

import (
	"context"
	"math"

	"repro/internal/stat"
	"repro/internal/telemetry"
)

// FoldKind selects how a stage's per-sample outcomes reduce to an
// estimate.
type FoldKind int

const (
	// FoldWeights is importance sampling: every sample pushes its weight
	// (zero for a pass) through a Welford accumulator, and the largest
	// weights are kept for the run-report's tail diagnostics.
	FoldWeights FoldKind = iota
	// FoldCount is brute-force Monte Carlo: an integer failure tally with
	// the closed-form Bernoulli error bar √(p(1−p)/n).
	FoldCount
	// FoldTally is statistical blockade: 0/1 indicators pushed through a
	// Welford accumulator.
	FoldTally
)

// MinTargetN guards until-target runs against declaring convergence from
// the first handful of samples: the stop test applies only once this
// many samples are folded.
const MinTargetN = 500

// Stage is a terminal sampling stage over the index space [0, N).
type Stage struct {
	// Fold selects the reduction.
	Fold FoldKind
	// N is the stage length: the sample count of a fixed run and the cap
	// of an until-target run.
	N int
	// Chunk is the dispatch size. The context is polled, progress
	// published and the stop test applied between chunks, so the decision
	// points land on the same indices for every worker count.
	Chunk int
	// Eval evaluates samples [lo, hi) into their Partial.
	Eval func(lo, hi int) Partial
	// Progress, when non-nil, receives one progress event per chunk and
	// the closing estimator.done event of a Run.
	Progress *telemetry.Registry
}

// Run evaluates the stage from index 0 one chunk at a time, folding each
// chunk's Partial in index order; only one chunk's Partial is held at a
// time. With target > 0 the run stops at the first chunk boundary, from
// MinTargetN samples on, where RelErr99 ≤ target (N is then the cap).
// ctx is polled between chunks, so a cancel aborts within one chunk.
func (s *Stage) Run(ctx context.Context, target float64, trace TraceEvery) (Result, error) {
	return s.run(ctx, target, MinTargetN, trace)
}

func (s *Stage) run(ctx context.Context, target float64, minN int, trace TraceEvery) (Result, error) {
	if s.N <= 0 {
		return Result{}, ErrBadSampleCount
	}
	// The stage span nests under the span in ctx (the estimate root)
	// when tracing is on, whether or not the stage reports progress.
	ctx, span := telemetry.StartSpan(ctx, s.Progress, "stage2")
	defer span.End()
	if target > 0 {
		span.SetAttr("target", target)
		span.SetAttr("max_n", s.N)
	} else {
		span.SetAttr("n", s.N)
	}
	prog := newStageProgress(s.Progress, "stage2", s.N)
	f := fold{kind: s.Fold, trace: trace}
	for lo := 0; lo < s.N; lo += s.Chunk {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		p := s.Eval(lo, min(lo+s.Chunk, s.N))
		f.push(p)
		pf, _, rel := f.estimate()
		prog.publish(f.n, f.failures, pf, rel, f.maxWeightFrac())
		if target > 0 && f.n >= minN && rel <= target {
			break
		}
	}
	res := f.result()
	span.SetAttr("failures", res.Failures)
	prog.done(&res)
	return res, nil
}

// Partials evaluates only the given ranges of the stage, each inside
// [0, N), returning one Partial per range. The ranges need not cover the
// stage; a distributed worker evaluates the ranges it leased. ctx is
// polled once per chunk.
func (s *Stage) Partials(ctx context.Context, ranges []Range) ([]Partial, error) {
	if err := checkRanges(s.N, ranges); err != nil {
		return nil, err
	}
	out := make([]Partial, 0, len(ranges))
	for _, r := range ranges {
		p := Partial{Start: r.Lo, Count: r.Count()}
		for lo := r.Lo; lo < r.Hi; lo += s.Chunk {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			c := s.Eval(lo, min(lo+s.Chunk, r.Hi))
			p.Sims += c.Sims
			p.FailIdx = append(p.FailIdx, c.FailIdx...)
			p.W = append(p.W, c.W...)
		}
		out = append(out, p)
	}
	return out, nil
}

// Fold reassembles the Result of an n-sample stage from partials that
// cover [0, n) in any order, replaying Run's reduction in strict
// sample-index order. Floating-point addition is not associative, so the
// replay is the correctness argument: the folded Result is bit-identical
// to Run over the same n samples, not merely statistically equivalent.
func Fold(kind FoldKind, n int, parts []Partial, trace TraceEvery) (Result, error) {
	if n <= 0 {
		return Result{}, ErrBadSampleCount
	}
	sorted, err := checkCover(n, parts, kind == FoldWeights)
	if err != nil {
		return Result{}, err
	}
	f := fold{kind: kind, trace: trace}
	for _, p := range sorted {
		f.push(p)
	}
	return f.result(), nil
}

// fold is the incremental, index-ordered reduction of a stage's
// Partials.
type fold struct {
	kind     FoldKind
	trace    TraceEvery
	n        int
	failures int
	run      stat.Running // weights (FoldWeights) or indicators (FoldTally)
	top      topWeights
	points   []TracePoint
}

// push folds p, whose range must start where the fold left off. Every
// sample pushes — a pass contributes a zero weight or indicator.
func (f *fold) push(p Partial) {
	k := 0
	for i := p.Start; i < p.Start+p.Count; i++ {
		v := 0.0
		if k < len(p.FailIdx) && p.FailIdx[k] == i {
			v = 1
			if f.kind == FoldWeights {
				v = p.W[k]
			}
			f.failures++
			k++
		}
		f.n++
		if f.kind != FoldCount {
			f.run.Push(v)
		}
		if f.kind == FoldWeights {
			f.top.push(v)
		}
		if f.trace > 0 && f.n%int(f.trace) == 0 {
			pf, _, rel := f.estimate()
			f.points = append(f.points, TracePoint{N: f.n, Estimate: pf, RelErr99: rel})
		}
	}
}

// estimate returns the running Pf, its standard error and RelErr99
// (+Inf while the estimate is zero).
func (f *fold) estimate() (pf, se, rel float64) {
	if f.kind != FoldCount {
		return f.run.Mean(), f.run.StdErr(), f.run.RelErr99()
	}
	pf = float64(f.failures) / float64(f.n)
	if f.n > 1 {
		se = sqrt(pf * (1 - pf) / float64(f.n))
	}
	rel = math.Inf(1)
	if pf > 0 {
		rel = stat.Z99 * se / pf
	}
	return pf, se, rel
}

// maxWeightFrac is the share of the estimate carried by the largest
// importance weight (0 for indicator folds).
func (f *fold) maxWeightFrac() float64 {
	if f.kind != FoldWeights {
		return 0
	}
	if wsum := f.run.Mean() * float64(f.n); wsum > 0 {
		return f.top.max() / wsum
	}
	return 0
}

// result finalizes the fold. For importance weights the Kish ESS is
// reconstructed from the tracked moments: Σw = n·mean and
// Σw² = (n−1)·var + n·mean²; for brute force it is the failure count.
func (f *fold) result() Result {
	pf, se, rel := f.estimate()
	res := Result{Pf: pf, StdErr: se, RelErr99: rel, N: f.n, Failures: f.failures, Trace: f.points}
	switch f.kind {
	case FoldWeights:
		n := float64(f.n)
		sumW := n * f.run.Mean()
		sumW2 := (n-1)*f.run.Var() + n*f.run.Mean()*f.run.Mean()
		if sumW2 > 0 {
			res.WeightESS = sumW * sumW / sumW2
		}
		res.MaxWeight, res.TopWeights = f.top.max(), f.top.w
	case FoldCount:
		res.WeightESS = float64(f.failures)
	}
	return res
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}
