package repro

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"

	"repro/internal/mc"
)

// Distributed estimation: the library splits a run into a deterministic
// replicated prefix (every stage before the terminal sampling loop —
// starting-point search, Gibbs chain, distortion fit, MIS exploration,
// blockade training) plus a shardable terminal stage whose samples are
// pure functions of (seed, absolute index, prefix). EstimatePartial
// evaluates only a set of index ranges of that terminal stage;
// FoldPartials reassembles a full Result — bit-identical to
// EstimateContext — from the prefix and a covering set of partials.
// internal/dist runs this seam over HTTP between a coordinator and
// worker processes.

// ErrNotShardable is reported (wrapped) by ShardPlan for options a
// distributed run cannot honor bit-identically; test with errors.Is.
var ErrNotShardable = errors.New("repro: options not distributable")

// ShardRange is a half-open [Lo, Hi) interval of terminal-stage sample
// indices (an alias of the evaluation engine's range type, so partials
// flow through without conversion).
type ShardRange = mc.Range

// Prefix carries the deterministic first-stage products a distributed
// fold needs: the terminal stage's reduction, the cost split and the
// fitted-distortion descriptors that feed the Result and its RunReport.
// For whole-job methods (subset simulation, which is sequential by
// construction) Final carries the complete estimate instead. Every
// worker that replays a job's prefix must arrive at these exact bytes —
// Digest is the cross-check.
type Prefix struct {
	// Fold is the reduction the terminal stage's partials fold through.
	Fold mc.FoldKind `json:"fold"`
	// Stage1Sims is the simulation cost of the replicated prefix (as a
	// single-node run would report it — replication across workers does
	// not multiply it).
	Stage1Sims int64 `json:"stage1_sims,omitempty"`
	// GibbsSamples are the first-stage chain samples (G-C/G-S only);
	// the fold re-derives the report's chain diagnostics from them.
	GibbsSamples [][]float64 `json:"gibbs_samples,omitempty"`
	// DistortionMean is the fitted g^NOR mean (importance-sampling
	// methods only).
	DistortionMean []float64 `json:"distortion_mean,omitempty"`
	// Final is the complete estimate for whole-job methods (subset);
	// nil for shardable methods.
	Final *Result `json:"final,omitempty"`
}

// Digest returns a hex SHA-256 over a canonical binary encoding of the
// prefix (exact float64 bits, not decimal renderings). Two workers that
// disagree — version skew, a non-deterministic metric — disagree here,
// before their partials can silently corrupt a fold.
func (p *Prefix) Digest() string {
	h := sha256.New()
	var buf [8]byte
	putInt := func(v int64) {
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	putFloat := func(v float64) {
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	putVec := func(v []float64) {
		putInt(int64(len(v)))
		for _, x := range v {
			putFloat(x)
		}
	}
	putInt(int64(p.Fold))
	putInt(p.Stage1Sims)
	putInt(int64(len(p.GibbsSamples)))
	for _, row := range p.GibbsSamples {
		putVec(row)
	}
	putVec(p.DistortionMean)
	if p.Final != nil {
		putInt(1)
		digestResult(h, putInt, putFloat, putVec, p.Final)
	} else {
		putInt(0)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestResult(_ hash.Hash, putInt func(int64), putFloat func(float64), putVec func([]float64), r *Result) {
	putFloat(r.Pf)
	putFloat(r.StdErr)
	putFloat(r.RelErr99)
	putInt(int64(r.N))
	putInt(int64(r.Failures))
	putFloat(r.WeightESS)
	putFloat(r.MaxWeight)
	putVec(r.TopWeights)
	putInt(r.Stage1Sims)
	putInt(r.Stage2Sims)
	putInt(r.TotalSims)
}

// PartialRun is one worker's contribution to a distributed estimate:
// the replayed prefix plus the partial statistics of the ranges it
// leased.
type PartialRun struct {
	Prefix Prefix       `json:"prefix"`
	Chunks []mc.Partial `json:"chunks,omitempty"`
}

// ShardPlan validates that opts describes an estimation a distributed
// run can reproduce bit-identically and returns the terminal-stage
// sample count to shard (1 for whole-job methods). Until-target runs
// (Target > 0) are rejected: the stop decision folds global state at
// every chunk boundary, which a coordinator leasing ranges ahead does
// not see.
func ShardPlan(opts Options) (total int, err error) {
	if err := opts.Validate(); err != nil {
		return 0, err
	}
	o := opts.withDefaults()
	if o.Target > 0 {
		return 0, fmt.Errorf("%w: until-target runs (Target > 0) stop on a global convergence test", ErrNotShardable)
	}
	if o.Method == Subset {
		// Sequential adaptive ladder: distributed as one whole-job range.
		return 1, nil
	}
	return o.N, nil
}

// EstimatePartial runs opts' deterministic prefix in full and evaluates
// only the given terminal-stage ranges, the way a distributed worker
// does. The ranges may be any well-formed subset of [0, ShardPlan(opts))
// — they do not need to cover it. An aborted run returns the context's
// error, exactly like EstimateContext.
func EstimatePartial(ctx context.Context, metric Metric, opts Options, ranges []ShardRange) (*PartialRun, error) {
	if metric == nil {
		return nil, fmt.Errorf("%w: nil metric", ErrInvalidOptions)
	}
	if _, err := ShardPlan(opts); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	attachTelemetry(metric, o.Telemetry)
	p, st, err := runPrefix(ctx, mc.NewCounter(metric), o)
	if err != nil {
		return nil, err
	}
	run := &PartialRun{Prefix: p}
	if st == nil {
		// Whole-job: the single range [0,1) stands for the entire run.
		if len(ranges) != 1 || ranges[0] != (ShardRange{Lo: 0, Hi: 1}) {
			return nil, fmt.Errorf("%w: subset simulation runs as one whole-job range [0,1)", mc.ErrBadRange)
		}
		return run, nil
	}
	if run.Chunks, err = st.Partials(ctx, ranges); err != nil {
		return nil, err
	}
	return run, nil
}

// FoldPartials reassembles the full estimate from a job's prefix and a
// set of partials covering [0, ShardPlan(opts)), replaying the
// single-node reduction in strict sample-index order. The returned
// Result — including its RunReport — is bit-identical to an uncancelled
// EstimateContext run of the same options once wall-clock fields are set
// aside (the Seconds fields are zero here; totalSeconds only feeds the
// report's TotalSeconds, which Deterministic() already excludes).
func FoldPartials(opts Options, prefix Prefix, chunks []mc.Partial, totalSeconds float64) (*Result, error) {
	total, err := ShardPlan(opts)
	if err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	var s mc.Result
	var stage2 int64
	if prefix.Final == nil {
		if s, err = mc.Fold(prefix.Fold, total, chunks, mc.TraceEvery(o.TraceEvery)); err != nil {
			return nil, err
		}
		for _, c := range chunks {
			stage2 += c.Sims
		}
	}
	res := assemble(prefix, s, stage2)
	res.Report = buildReport(res, o, totalSeconds)
	return res, nil
}

// SplitRanges cuts [0, total) into at most parts contiguous ranges
// whose boundaries land on multiples of grain (the final range absorbs
// the remainder), the unit of work a distributed coordinator leases
// out. grain ≤ 0 selects the evaluation engine's chunk size. Boundary
// alignment is cosmetic — any covering split folds to the same bits —
// but chunk-aligned leases keep each worker's kernel batches full.
func SplitRanges(total, parts, grain int) []ShardRange {
	if total <= 0 {
		return nil
	}
	if grain <= 0 {
		grain = mc.ChunkSize
	}
	if parts <= 0 {
		parts = 1
	}
	size := (total + parts - 1) / parts
	size = (size + grain - 1) / grain * grain
	out := make([]ShardRange, 0, parts)
	for lo := 0; lo < total; lo += size {
		out = append(out, ShardRange{Lo: lo, Hi: min(lo+size, total)})
	}
	return out
}
