package gibbs

import (
	"math"
	"time"

	"repro/internal/stat"
)

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
// search hands its upper edge to a second goroutine. An edge is ~5
// probes, and overlapping the two edges pays only when an edge outlasts
// the fork-join, whose cost is mostly the ~70 µs it takes to wake an
// idle core (2-vCPU Xeon): two 200 µs halves join in ~290 µs, two 50 µs
// halves in ~106 µs. Analytic metrics (nanoseconds a probe) and most
// readcurrent probes (3–11 µs) stay below it; rnm (p1 ≈ 135 µs, p50
// ≈ 215 µs) and access (≥ 75 µs) probes are far above it.
const forkMinProbe = 20 * time.Microsecond

// failureIntervalStat implements step 2 of the paper's Algorithm 3:
// locate a contiguous 1-D failure interval [u, v] ⊆ [lo, hi] along the
// coordinate being resampled, by bracketing each edge and refining it
// on the margin (see refine). probe(side, t) returns the metric's margin
// at coordinate value t — negative fails, anything else (NaN included,
// as in mc.Fail) passes — and costs one transistor-level simulation;
// probes is how many it made.
//
// The search starts from t0 (the chain's current coordinate value, which
// normally fails). If t0 passes — the chain can drift out when other
// coordinates moved the arc (paper §V-B discussion) — a coarse scan over
// [lo, hi] recovers the failing segment nearest to t0; if the scan finds
// nothing, st is intervalNone and the caller keeps the current value.
// The status also classifies the search for telemetry.
//
// From the failing point the two edges are independent searches: each
// refines from the failing point's margin and its own side's probes
// only. With o.workers ≥ 2, and a start probe that took at least
// forkMinProbe, the upper edge runs on a second goroutine while the
// caller searches the lower one, and both have joined before the
// function returns. The upper edge probes with side 1, everything else
// with side 0, so a probe that builds its point in a per-side buffer
// never shares one between goroutines; probes of different sides must be
// safe to run at once. Each side probes the same points either way, so
// u, v and probes do not depend on the worker count or the timing; when
// the search does not fork, the upper edge is searched first, then the
// lower.
//
// When the failure region touches a bound, that bound is returned as the
// boundary (the paper's "bound the high-probability failure region by
// constraining x_m within [−ζ, ζ]"). law is the coordinate's 1-D law,
// which ends an edge's walk where too little of it is left (see expand).
func failureIntervalStat(probe func(side int, t float64) float64, t0, lo, hi float64, law coordLaw, o *Options) (u, v float64, st intervalStatus, probes int) {
	if t0 < lo {
		t0 = lo
	}
	if t0 > hi {
		t0 = hi
	}
	lower := func(t float64) float64 {
		probes++
		return probe(0, t)
	}
	st = intervalAtCurrent
	var began time.Time
	if o.workers >= 2 {
		began = time.Now()
	}
	y0 := lower(t0)
	fork := o.workers >= 2 && time.Since(began) >= forkMinProbe
	if !(y0 < 0) {
		best, found := 0.0, false
		bestDist := hi - lo + 1
		for i := 0; i < scanPoints; i++ {
			t := lo + (hi-lo)*(float64(i)+0.5)/scanPoints
			if y := lower(t); y < 0 {
				d := t - t0
				if d < 0 {
					d = -d
				}
				if d < bestDist {
					best, y0, bestDist, found = t, y, d, true
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
		v = expand(func(t float64) float64 {
			probes++
			return probe(1, t)
		}, t0, y0, hi, +expandStep, o.Bisections, law)
		u = expand(lower, t0, y0, lo, -expandStep, o.Bisections, law)
		return u, v, st, probes
	}
	// The goroutine gets its start, margin and refinement count as
	// arguments: capturing t0 and y0, which are reassigned above, would
	// put them on the heap on every call, and capturing o would put the
	// chain's Options there. upperProbes is read only after the receive.
	upperProbes := 0
	edge := make(chan float64, 1)
	go func(from, margin float64, bisections int) {
		edge <- expand(func(t float64) float64 {
			upperProbes++
			return probe(1, t)
		}, from, margin, hi, expandStep, bisections, law)
	}(t0, y0, o.Bisections)
	u = expand(lower, t0, y0, lo, -expandStep, o.Bisections, law)
	v = <-edge
	return u, v, st, probes + upperProbes
}

// tailCut is the share of a walk's mass below which expand stops
// walking: once the law's mass between a failing probe and the bound is
// at most tailCut of the mass between the walk's start and that probe,
// the probe is the edge. Refinement already misplaces an edge by up to
// 1/2^Bisections of its bracket, several percent of the conditional's
// mass on a steep tail, so a mass this small moves nothing the chain
// resolves; and stage 2 weights by f/g, so the cut only shapes the
// proposal.
const tailCut = 1e-3

// coordLaw is the 1-D law of a coordinate that expand walks, given as
// its mass beyond t: above t when up, below t otherwise. An
// inverse-transform draw from the interval samples the same law.
type coordLaw func(t float64, up bool) float64

// normalLaw is N(0, 1), the law of a Cartesian coordinate and of an
// orientation coordinate α_m.
func normalLaw(t float64, up bool) float64 {
	if up {
		return stat.NormSF(t)
	}
	return stat.NormCDF(t)
}

// chiLaw is Chi(k), the law of the spherical radius in k dimensions.
func chiLaw(k int) coordLaw {
	c := stat.Chi{K: k}
	return func(t float64, up bool) float64 {
		if up {
			return c.SF(t)
		}
		return c.CDF(t)
	}
}

// expand walks from the failing point t0 (margin y0) toward bound in
// geometrically growing steps until a probe passes or the bound is hit,
// then refines the edge between the last failing point and the passing
// one. A positive step walks up, negative walks down. A failing probe
// past which law leaves at most tailCut of the walked mass before the
// bound ends the walk and is returned as the edge; a mass that reads NaN
// never ends it. Either way the edge is t0 or a probe seen to fail.
func expand(probe func(float64) float64, t0, y0, bound, step float64, bisections int, law coordLaw) float64 {
	up := step > 0
	q0, qBound := law(t0, up), law(bound, up)
	tFail, yFail := t0, y0
	for {
		tn := tFail + step
		if (up && tn >= bound) || (!up && tn <= bound) {
			y := probe(bound)
			if y < 0 {
				return bound
			}
			return refine(probe, tFail, yFail, bound, y, bisections)
		}
		y := probe(tn)
		if !(y < 0) {
			return refine(probe, tFail, yFail, tn, y, bisections)
		}
		if q := law(tn, up); q-qBound <= tailCut*(q0-q) {
			return tn
		}
		tFail, yFail = tn, y
		step *= 2
	}
}

// The ITP constants (Oliveira & Takahashi, ACM TOMS 47(1), 2021): a
// step's truncation is δ = itpKappa1·w²/w₀ on a bracket of width w out
// of an initial w₀ (κ₁ = 0.1/w₀, κ₂ = 2), and an edge may take itpSlack
// probes beyond bisection's count (n₀).
const (
	itpKappa1 = 0.1
	itpSlack  = 1
)

// refine locates the edge between a failing point a (margin ya < 0) and
// a passing point b (margin yb, NaN included), on either side of a, with
// the ITP method. Each probe goes to the margin's linear interpolant,
// truncated toward the bracket's midpoint and projected into the ball
// around the midpoint that keeps bisection's worst case. It stops once
// the bracket is no wider than |b − a|/2^bisections (to a few ulps),
// where bisection stops, after at most bisections+1 probes; on a smooth
// margin it converges superlinearly and needs fewer probes than
// bisection. It returns the bracket's failing end: a point seen to
// fail, or a itself. While either end's margin is NaN or ±Inf the step
// is a bisection. Only this bracket's own probes steer it, so the two
// edges of an interval never depend on each other.
func refine(probe func(float64) float64, a, ya, b, yb float64, bisections int) float64 {
	w0 := math.Abs(b - a)
	tol := math.Ldexp(w0, -bisections)
	// The bracket's ends round, which can leave the last bracket a few
	// ulps wider than the projection aimed for; stopping there keeps
	// the probe bound.
	scale := math.Max(math.Abs(a), math.Abs(b))
	stop := tol + 4*(math.Nextafter(scale, math.Inf(1))-scale)
	for j := 0; math.Abs(b-a) > stop; j++ {
		lo, hi := math.Min(a, b), math.Max(a, b)
		mid := a + 0.5*(b-a)
		x := mid
		// ya < 0, so only yb can be NaN.
		if !math.IsInf(ya, 0) && !math.IsNaN(yb) && !math.IsInf(yb, 0) {
			// Interpolate, truncate δ toward the midpoint, then project
			// within r of it: r is the slack that still lets the
			// remaining probes shrink the bracket to tol.
			w := hi - lo
			xf := (yb*a - ya*b) / (yb - ya)
			sigma := math.Copysign(1, mid-xf)
			if delta := itpKappa1 * w * w / w0; delta <= math.Abs(mid-xf) {
				x = xf + sigma*delta
			}
			if r := math.Ldexp(tol, bisections+itpSlack-j-1) - 0.5*w; math.Abs(x-mid) > r {
				x = mid - sigma*r
			}
			if !(x > lo && x < hi) {
				x = mid
			}
		}
		if y := probe(x); y < 0 {
			a, ya = x, y
		} else {
			b, yb = x, y
		}
	}
	return a
}
