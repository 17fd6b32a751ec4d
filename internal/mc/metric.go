// Package mc provides the Monte Carlo foundations shared by every
// estimator in the library: the Metric/indicator abstraction with
// simulation counting, the parallel evaluation engine, and the stage
// driver behind brute-force Monte Carlo, importance sampling and the
// blockade stream, with 99%-confidence-interval convergence traces (the
// paper's accuracy figure of merit).
package mc

import "sync/atomic"

// Metric is a normalized circuit performance margin over the
// variation space x (independent standard Normal coordinates, paper
// eq. 1): the sample fails exactly when Value(x) < 0. Each Value call
// stands for one transistor-level simulation — the paper's unit of cost.
//
// Thread-safety contract: Value must be safe to call from multiple
// goroutines at once. Every estimator in the library runs its simulation
// batches through the Evaluator worker pool, so a Metric whose Value
// mutates shared state (a cached solver, a shared circuit) must protect
// or replicate that state per call. The built-in metrics comply by
// constructing a fresh spice.Circuit per evaluation and treating the
// Cell/MOSModel cards as read-only.
type Metric interface {
	// Dim returns the dimensionality M of the variation space.
	Dim() int
	// Value returns the margin at x; negative means failure.
	Value(x []float64) float64
}

// Fail reports whether x falls in the failure region Ω of the metric.
func Fail(m Metric, x []float64) bool { return m.Value(x) < 0 }

// BatchMetric is a Metric that can evaluate many samples in one call,
// amortizing per-solve setup (circuit templates, solver workspaces,
// warm-start anchors) across the batch. The contract that keeps
// estimates exact: out[i] must be bit-identical to Value(xs[i]) — each
// sample's result a pure function of its own coordinates, never of its
// batch neighbors. The engine checks for this interface and transparently
// routes whole sample groups through it; everything downstream (chunk
// boundaries, index-ordered reductions, per-sample RNG streams) is
// unchanged, so a batched run reproduces a scalar run bit for bit.
type BatchMetric interface {
	Metric
	// ValueBatch writes Value(xs[i]) into out[i] for 0 ≤ i < len(xs).
	// out has at least len(xs) entries.
	ValueBatch(xs [][]float64, out []float64)
}

// Counter wraps a Metric and counts simulations. All estimators in the
// library draw their cost reports from Counter, so "number of
// transistor-level simulations" is measured, never assumed. The count is
// kept with sync/atomic: concurrent Value calls from the Evaluator pool
// lose no increments, so stage-cost accounting stays exact under any
// worker count.
type Counter struct {
	m Metric
	n atomic.Int64
}

// NewCounter wraps m.
func NewCounter(m Metric) *Counter { return &Counter{m: m} }

// Dim implements Metric.
func (c *Counter) Dim() int { return c.m.Dim() }

// Value implements Metric, incrementing the simulation count.
func (c *Counter) Value(x []float64) float64 {
	c.n.Add(1)
	return c.m.Value(x)
}

// ValueBatch implements BatchMetric, counting one simulation per sample.
// When the wrapped metric batches, the call is delegated wholesale; a
// scalar-only metric is evaluated sample by sample, so wrapping in a
// Counter never changes results — only whether the group dispatch can
// amortize solver state underneath.
func (c *Counter) ValueBatch(xs [][]float64, out []float64) {
	c.n.Add(int64(len(xs)))
	if bm, ok := c.m.(BatchMetric); ok {
		bm.ValueBatch(xs, out)
		return
	}
	for i, x := range xs {
		out[i] = c.m.Value(x)
	}
}

// Count returns the number of simulations performed so far.
func (c *Counter) Count() int64 { return c.n.Load() }

// Reset zeroes the simulation count.
func (c *Counter) Reset() { c.n.Store(0) }

// MetricFunc adapts a plain function to the Metric interface.
type MetricFunc struct {
	M int
	F func(x []float64) float64
}

// Dim implements Metric.
func (f MetricFunc) Dim() int { return f.M }

// Value implements Metric.
func (f MetricFunc) Value(x []float64) float64 { return f.F(x) }
