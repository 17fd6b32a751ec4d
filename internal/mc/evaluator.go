package mc

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Evaluator is the shared batch-evaluation engine: a worker pool over
// the metric with deterministic per-sample RNG streams. Every sample
// index i gets its own generator seeded from (seed, i) — never from the
// worker id — so an estimate computed through the Evaluator is
// bit-identical for every worker count, including 1. All estimators in
// the library run their simulation batches through this type; the worker
// count is the single knob that maps simulator solves onto cores.
//
// Thread-safety contract: the wrapped Metric (and any Distortion sampled
// inside a batch) must be safe for concurrent Value/ValueBatch/Sample/
// LogPDF calls. The library's metrics honor this by construction —
// sram.Metric checks reusable simulation engines out of a free list so
// concurrent callers never share solver state, and Counter counts
// atomically — but a custom Metric that caches solver state must keep
// that state per-call (or per-goroutine).
//
// Evaluation has one dispatch: MapBatch hands each KernelBatch group to
// the metric in one call — ValueBatch for a BatchMetric, Value per
// sample otherwise — with the same group boundaries, per-sample seeding
// and result order either way, so the estimate never depends on which.
type Evaluator struct {
	metric  Metric
	workers int
	tele    *evalTelemetry
}

// NewEvaluator wraps metric with a pool of the given size; workers ≤ 0
// selects GOMAXPROCS.
func NewEvaluator(metric Metric, workers int) *Evaluator {
	return &Evaluator{metric: metric, workers: workers}
}

// evalTelemetry holds the engine's metric handles in the "mc" scope:
// samples_total, chunks_total and kernel_batches_total counters and the
// chunk-latency histogram. Handles are resolved once at WithTelemetry,
// so the dispatch path pays one nil check when disabled and plain
// atomic ops when enabled.
type evalTelemetry struct {
	reg          *telemetry.Registry
	samples      *telemetry.Counter
	chunks       *telemetry.Counter
	batches      *telemetry.Counter
	chunkSeconds *telemetry.Histogram
}

var chunkSecondsBuckets = telemetry.ExpBuckets(1e-6, 10, 8) // 1µs .. 10s

// WithTelemetry attaches a telemetry registry to the evaluator and
// returns it (nil-safe on both sides, so callers can chain it
// unconditionally). Telemetry only observes: throughput counters, the
// chunk-latency histogram and progress events never touch the
// samples, so estimates are bit-identical with telemetry on or off.
func (e *Evaluator) WithTelemetry(reg *telemetry.Registry) *Evaluator {
	if e == nil || reg == nil {
		return e
	}
	s := reg.Scope(wire.ScopeMC)
	e.tele = &evalTelemetry{
		reg:          reg,
		samples:      s.Counter("samples_total"),
		chunks:       s.Counter("chunks_total"),
		batches:      s.Counter("kernel_batches_total"),
		chunkSeconds: s.Histogram("chunk_seconds", chunkSecondsBuckets),
	}
	s.Gauge("workers").Set(float64(e.Workers()))
	return e
}

// Telemetry returns the attached registry (nil when disabled).
func (e *Evaluator) Telemetry() *telemetry.Registry {
	if e == nil || e.tele == nil {
		return nil
	}
	return e.tele.reg
}

// Metric returns the wrapped metric.
func (e *Evaluator) Metric() Metric { return e.metric }

// Dim returns the wrapped metric's dimensionality.
func (e *Evaluator) Dim() int { return e.metric.Dim() }

// Workers resolves the configured pool size (0 → GOMAXPROCS).
func (e *Evaluator) Workers() int {
	if e == nil || e.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.workers
}

// ChunkSize is the number of samples dispatched between convergence
// checks in the until-target estimators. It is a fixed constant — not a
// function of the worker count — because the early-stop decision points
// must land on the same sample indices for every pool size to keep
// estimates worker-count-independent.
const ChunkSize = 256

// KernelBatch is the group size MapBatch hands to the metric: large
// enough to amortize engine checkout across samples, small enough that a
// ChunkSize dispatch still splits into ChunkSize/KernelBatch units of
// parallel work. Like ChunkSize it is a fixed constant — group
// boundaries land on the same sample indices for every worker count.
const KernelBatch = 32

// sampleSeed derives the RNG seed of sample i from the batch seed: the
// (i+1)-th splitmix64 output of a stream started at seed. Distinct
// (seed, i) pairs land on well-separated streams; the same pair always
// lands on the same stream, which is the root of the engine's
// determinism guarantee.
func sampleSeed(seed int64, i int) uint64 {
	s := sampleSource{state: uint64(seed) + 0x9e3779b97f4a7c15*uint64(int64(i))}
	return s.Uint64()
}

// sampleSource is a splitmix64 rand.Source64. Unlike the stdlib source
// (whose Seed walks a 607-word table), reseeding is a single store, so a
// worker can reuse one source — and one rand.Rand — across every sample
// it evaluates.
type sampleSource struct{ state uint64 }

func (s *sampleSource) Seed(seed int64) { s.state = uint64(seed) }

func (s *sampleSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *sampleSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Map evaluates fn for every sample index in [start, start+n) across the
// pool and returns the results in index order. Each call receives a
// generator deterministically seeded from (seed, index), so the output —
// including every random draw fn makes — is identical for every worker
// count. fn must be safe for concurrent invocation.
func Map[T any](e *Evaluator, seed int64, start, n int, fn func(rng *rand.Rand, i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	e.run(n, n, func(w *worker, k int) {
		w.src.state = sampleSeed(seed, start+k)
		out[k] = fn(w.rng, start+k)
	})
	return out
}

// MapBatch draws and evaluates samples [start, start+n): for each index
// i, x = draw(rng_i, i) with rng_i seeded from (seed, i), v = the
// metric's margin at x, and the result is post(i, x, v). Results come
// back in index order.
//
// Samples go through the pool in groups of KernelBatch: a worker reseeds
// and draws every x in its group, evaluates the group in one valueBatch
// call, then post-processes. Per-sample RNG streams, group boundaries
// and the output order are all independent of the worker count, so the
// results are too. draw must hand over the returned slice (not reuse
// it); post must be pure and safe for concurrent calls.
func MapBatch[T any](e *Evaluator, seed int64, start, n int, draw func(rng *rand.Rand, i int) []float64, post func(i int, x []float64, v float64) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	groups := (n + KernelBatch - 1) / KernelBatch
	e.run(n, groups, func(w *worker, g int) {
		lo := g * KernelBatch
		hi := min(lo+KernelBatch, n)
		w.xs = w.xs[:0]
		for k := lo; k < hi; k++ {
			w.src.state = sampleSeed(seed, start+k)
			w.xs = append(w.xs, draw(w.rng, start+k))
		}
		vals := w.vals[:hi-lo]
		valueBatch(e.metric, w.xs, vals)
		if e.tele != nil {
			e.tele.batches.Inc()
		}
		for j, x := range w.xs {
			out[lo+j] = post(start+lo+j, x, vals[j])
		}
	})
	return out
}

// worker is one pool goroutine's reusable state: a generator (rng over
// src) reseeded for every sample, and MapBatch's group buffers.
type worker struct {
	src  sampleSource
	rng  *rand.Rand
	xs   [][]float64
	vals []float64
}

// run is the pool's one worker loop, behind both Map and MapBatch: it
// calls body(w, k) for every unit k in [0, units) on up to Workers
// goroutines (the caller's own when there is one), each holding its own
// worker, and records the n samples those units cover as one chunk.
func (e *Evaluator) run(n, units int, body func(w *worker, k int)) {
	if e != nil && e.tele != nil {
		sw := e.tele.chunkSeconds.Start()
		defer func() {
			sw.Stop()
			e.tele.samples.Add(int64(n))
			e.tele.chunks.Inc()
		}()
	}
	var next atomic.Int64
	loop := func() {
		w := &worker{xs: make([][]float64, 0, KernelBatch), vals: make([]float64, KernelBatch)}
		w.rng = rand.New(&w.src)
		for k := int(next.Add(1)) - 1; k < units; k = int(next.Add(1)) - 1 {
			body(w, k)
		}
	}
	workers := min(e.Workers(), units)
	if workers == 1 {
		loop()
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			loop()
		}()
	}
	wg.Wait()
}

// Eval is one evaluated sample: the variation point and its margin.
type Eval struct {
	X     []float64
	Value float64
}

// Batch draws and evaluates samples [start, start+n): x_i = draw(rng_i)
// and Value_i = the metric's margin at x_i, in index order, deterministic
// in the worker count, evaluated in KernelBatch groups (see MapBatch).
// draw must not retain or reuse the returned slice.
func (e *Evaluator) Batch(seed int64, start, n int, draw func(rng *rand.Rand, i int) []float64) []Eval {
	return MapBatch(e, seed, start, n, draw, func(_ int, x []float64, v float64) Eval {
		return Eval{X: x, Value: v}
	})
}
