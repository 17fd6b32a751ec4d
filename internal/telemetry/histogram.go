package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free fixed-bucket histogram: per-bucket atomic
// counts plus atomically accumulated count/sum/min/max. Observations
// never take a lock, so concurrent workers (the evaluation pool, the
// SPICE solver under it) record without contention. All methods are
// nil-safe.
type Histogram struct {
	// bounds are the bucket upper bounds (sorted); counts has
	// len(bounds)+1 entries, the last being the +Inf overflow bucket.
	bounds []float64
	counts []atomic.Int64

	count            atomic.Int64
	sumBits          atomic.Uint64
	minBits, maxBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	h := &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound is >= v (le is inclusive, matching
	// Prometheus); all bounds smaller means the overflow bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	atomicAddFloat(&h.sumBits, v)
	atomicMinFloat(&h.minBits, v)
	atomicMaxFloat(&h.maxBits, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns the mean observed value (0 before any observation).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Min and Max return the observed extremes (±Inf before any
// observation).
func (h *Histogram) Min() float64 {
	if h == nil {
		return math.Inf(1)
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest observed value (−Inf before any observation).
func (h *Histogram) Max() float64 {
	if h == nil {
		return math.Inf(-1)
	}
	return math.Float64frombits(h.maxBits.Load())
}

// BucketCount is one histogram bucket in a snapshot: the count of
// observations at or below UpperBound but above the previous bound.
type BucketCount struct {
	UpperBound float64 `json:"le"` // +Inf for the overflow bucket
	Count      int64   `json:"count"`
}

// Buckets returns a consistent-enough snapshot of the per-bucket counts
// (individual loads are atomic; the set is not, which is fine for
// monitoring).
func (h *Histogram) Buckets() []BucketCount {
	if h == nil {
		return nil
	}
	out := make([]BucketCount, len(h.counts))
	for i := range h.counts {
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		out[i] = BucketCount{UpperBound: ub, Count: h.counts[i].Load()}
	}
	return out
}

// Quantile returns the approximate q-quantile (0 < q < 1) of the
// observed values, reconstructed from the bucket counts: the target rank
// is located in the cumulative bucket distribution and interpolated
// linearly inside its bucket. The first bucket's lower edge is the
// observed minimum and the overflow bucket spans [last bound, observed
// max], so the approximation degrades gracefully at the extremes instead
// of inventing mass. Returns NaN with no observations (or on nil).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	// rank is the (fractional) number of observations at or below the
	// quantile point.
	rank := q * float64(total)
	cum := int64(0)
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		// Interpolation edges: the bucket's bounds, tightened by the
		// observed min/max (every observation lies inside [min, max], so
		// the tighter edge is always valid). For a single observation or
		// an all-equal stream the edges collapse and the quantile comes
		// back exact instead of smeared across the bucket.
		lo := h.Min()
		if i > 0 && h.bounds[i-1] > lo {
			lo = h.bounds[i-1]
		}
		hi := h.Max()
		if i < len(h.bounds) && h.bounds[i] < hi {
			hi = h.bounds[i]
		}
		if lo > hi {
			lo = hi
		}
		frac := (rank - float64(cum)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return h.Max()
}

// Start returns a running Stopwatch that will Observe the elapsed
// seconds into h. On a nil histogram the stopwatch is inert and Stop
// does nothing — callers need no separate enabled check.
func (h *Histogram) Start() Stopwatch {
	if h == nil {
		return Stopwatch{}
	}
	return Stopwatch{h: h, t0: time.Now()}
}

// Stopwatch measures a wall-time span on the monotonic clock
// (time.Now/time.Since carry a monotonic reading) and records it into a
// histogram in seconds. The zero value is inert.
type Stopwatch struct {
	h  *Histogram
	t0 time.Time
}

// Stop records the elapsed seconds and returns them (0 when inert).
func (s Stopwatch) Stop() float64 {
	if s.h == nil {
		return 0
	}
	d := time.Since(s.t0).Seconds()
	s.h.Observe(d)
	return d
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start: start, start·factor, start·factor², …
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// atomicAddFloat adds v to the float64 stored in bits via CAS.
func atomicAddFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// atomicMinFloat lowers the float64 stored in bits to v if v is smaller.
func atomicMinFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// atomicMaxFloat raises the float64 stored in bits to v if v is larger.
func atomicMaxFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
