package gibbs

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

// failureIntervalStat implements step 2 of the paper's Algorithm 3:
// locate a contiguous 1-D failure interval [u, v] ⊆ [lo, hi] along the
// coordinate being resampled, by bracketing and bisection against the
// pass/fail indicator. probe(t) reports failure at coordinate value t and
// costs one transistor-level simulation.
//
// The search starts from t0 (the chain's current coordinate value, which
// normally fails). If t0 passes — the chain can drift out when other
// coordinates moved the arc (paper §V-B discussion) — a coarse scan over
// [lo, hi] recovers the failing segment nearest to t0; if the scan finds
// nothing, st is intervalNone and the caller keeps the current value.
// The status also classifies the search for telemetry.
//
// When the failure region touches a bound, that bound is returned as the
// boundary (the paper's "bound the high-probability failure region by
// constraining x_m within [−ζ, ζ]").
func failureIntervalStat(probe func(float64) bool, t0, lo, hi float64, o *Options) (u, v float64, st intervalStatus) {
	if t0 < lo {
		t0 = lo
	}
	if t0 > hi {
		t0 = hi
	}
	st = intervalAtCurrent
	if !probe(t0) {
		best, found := 0.0, false
		bestDist := hi - lo + 1
		for i := 0; i < o.ScanPoints; i++ {
			t := lo + (hi-lo)*(float64(i)+0.5)/float64(o.ScanPoints)
			if probe(t) {
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
			return 0, 0, intervalNone
		}
		t0 = best
		st = intervalRecovered
	}
	v = expand(probe, t0, hi, +o.ExpandStep, o.Bisections)
	u = expand(probe, t0, lo, -o.ExpandStep, o.Bisections)
	return u, v, st
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
