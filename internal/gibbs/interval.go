package gibbs

import "time"

// intervalStatus classifies one interval search, the chain-telemetry
// distinction between a healthy update and one that needed rescuing.
type intervalStatus int

const (
	// intervalNone: no failing segment found; the caller keeps the
	// current coordinate value.
	intervalNone intervalStatus = iota
	// intervalAtCurrent: the current value still fails; the interval was
	// bracketed directly from it.
	intervalAtCurrent
	// intervalRecovered: the current value passes and the coarse scan
	// recovered a failing segment elsewhere.
	intervalRecovered
)

// forkMinProbe is how long the start probe must take before an interval
// search hands its upper edge to a second goroutine. An edge is 5–8
// probes, and overlapping the two edges pays only when an edge outlasts
// the fork-join, whose cost is mostly the ~70 µs it takes to wake an
// idle core (2-vCPU Xeon): two 200 µs halves join in ~290 µs, two 50 µs
// halves in ~106 µs. Analytic metrics (nanoseconds a probe) and most
// readcurrent probes (3–11 µs) stay below it; rnm (p1 ≈ 135 µs, p50
// ≈ 215 µs) and access (≥ 75 µs) probes are far above it.
const forkMinProbe = 20 * time.Microsecond

// failureIntervalStat implements step 2 of the paper's Algorithm 3:
// locate a contiguous 1-D failure interval [u, v] ⊆ [lo, hi] along the
// coordinate being resampled, by bracketing and bisection against the
// pass/fail indicator. probe(side, t) reports failure at coordinate
// value t and costs one transistor-level simulation; probes is how many
// it made.
//
// The search starts from t0 (the chain's current coordinate value, which
// normally fails). If t0 passes — the chain can drift out when other
// coordinates moved the arc (paper §V-B discussion) — a coarse scan over
// [lo, hi] recovers the failing segment nearest to t0; if the scan finds
// nothing, st is intervalNone and the caller keeps the current value.
// The status also classifies the search for telemetry.
//
// From the failing point the two edges are independent searches. With
// o.workers ≥ 2, and a start probe that took at least forkMinProbe, the
// upper edge runs on a second goroutine while the caller searches the
// lower one, and both have joined before the function returns. The
// upper edge probes with side 1, everything else with side 0, so a
// probe that builds its point in a per-side buffer never shares one
// between goroutines; probes of different sides must be safe to run at
// once. Each side probes the same points either way, so u, v and probes
// do not depend on the worker count or the timing; when the search does
// not fork, the upper edge is searched first, then the lower.
//
// When the failure region touches a bound, that bound is returned as the
// boundary (the paper's "bound the high-probability failure region by
// constraining x_m within [−ζ, ζ]").
func failureIntervalStat(probe func(side int, t float64) bool, t0, lo, hi float64, o *Options) (u, v float64, st intervalStatus, probes int) {
	if t0 < lo {
		t0 = lo
	}
	if t0 > hi {
		t0 = hi
	}
	lower := func(t float64) bool {
		probes++
		return probe(0, t)
	}
	st = intervalAtCurrent
	var began time.Time
	if o.workers >= 2 {
		began = time.Now()
	}
	failing := lower(t0)
	fork := o.workers >= 2 && time.Since(began) >= forkMinProbe
	if !failing {
		best, found := 0.0, false
		bestDist := hi - lo + 1
		for i := 0; i < o.ScanPoints; i++ {
			t := lo + (hi-lo)*(float64(i)+0.5)/float64(o.ScanPoints)
			if lower(t) {
				d := t - t0
				if d < 0 {
					d = -d
				}
				if d < bestDist {
					best, bestDist, found = t, d, true
				}
			}
		}
		if !found {
			return 0, 0, intervalNone, probes
		}
		t0 = best
		st = intervalRecovered
	}
	if !fork {
		v = expand(func(t float64) bool {
			probes++
			return probe(1, t)
		}, t0, hi, +o.ExpandStep, o.Bisections)
		u = expand(lower, t0, lo, -o.ExpandStep, o.Bisections)
		return u, v, st, probes
	}
	// The goroutine gets its start and step as arguments: capturing t0,
	// which is reassigned above, would put it on the heap on every call,
	// and capturing o would put the chain's Options there. upperProbes
	// is read only after the receive.
	upperProbes := 0
	edge := make(chan float64, 1)
	go func(from, step float64, bisections int) {
		edge <- expand(func(t float64) bool {
			upperProbes++
			return probe(1, t)
		}, from, hi, step, bisections)
	}(t0, o.ExpandStep, o.Bisections)
	u = expand(lower, t0, lo, -o.ExpandStep, o.Bisections)
	v = <-edge
	return u, v, st, probes + upperProbes
}

// expand walks from the failing point t0 toward bound in geometrically
// growing steps until the indicator passes or the bound is hit, then
// bisects the boundary. A positive step walks up, negative walks down.
func expand(probe func(float64) bool, t0, bound, step float64, bisections int) float64 {
	tFail := t0
	for {
		tn := tFail + step
		if (step > 0 && tn >= bound) || (step < 0 && tn <= bound) {
			if probe(bound) {
				return bound
			}
			return bisect(probe, tFail, bound, bisections)
		}
		if probe(tn) {
			tFail = tn
			step *= 2
		} else {
			return bisect(probe, tFail, tn, bisections)
		}
	}
}

// bisect refines the boundary between a failing point and a passing point,
// returning the failing-side estimate.
func bisect(probe func(float64) bool, tFail, tPass float64, iters int) float64 {
	for i := 0; i < iters; i++ {
		mid := 0.5 * (tFail + tPass)
		if probe(mid) {
			tFail = mid
		} else {
			tPass = mid
		}
	}
	return tFail
}
