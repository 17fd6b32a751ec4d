// Package gibbs implements the paper's primary contribution: Gibbs
// sampling of the optimal importance-sampling distribution
// g^OPT(x) = I(x)·f(x)/P_f without explicit knowledge of the indicator
// I(x), in both Cartesian (Algorithm 1) and spherical (Algorithm 2)
// coordinate systems, with 1-D inverse-transform sampling of the
// conditionals (Algorithm 3), model-based starting-point selection
// (Algorithm 4), and the two-stage Monte Carlo flow (Algorithm 5).
package gibbs

import (
	"math"
	"math/rand"

	"repro/internal/telemetry"
)

// Options tunes the Gibbs chain. The zero value (or nil) selects the
// defaults used in the experiments.
type Options struct {
	// Bisections sets how finely each interval boundary is found: the
	// search locates each edge to 1/2^Bisections of its bracket in at
	// most Bisections+1 simulations (default 6).
	Bisections int
	// Epsilon is the ‖α‖ used when mapping the starting point into the
	// redundant spherical coordinates (paper eq. 32; default 1e-2).
	Epsilon float64
	// Chains splits the K samples of a chain-function call across this
	// many independent chains, all started from the same point and
	// pooled in chain order (default 2; a call asking for fewer samples
	// than chains runs one chain per sample). It is a fixed count, never
	// derived from the worker count, so the samples are the same
	// whichever way the chains are scheduled. Chains: 1 is the paper's
	// single chain.
	Chains int
	// Telemetry, when non-nil, receives per-coordinate interval-search
	// counters, mixing gauges and one "gibbs.chain" event per
	// chain-function call. It only observes — the chains' draws are
	// identical with it on or off.
	Telemetry *telemetry.Registry

	// workers is the two-stage flow's resolved worker count. At 2 or
	// more the chains run at once, and a chain whose share of the
	// workers is 2 or more searches the two edges of a slow interval
	// at once (see failureIntervalStat); the zero value runs the chains
	// one after another on the caller's goroutine. The draws are the
	// same either way.
	workers int
	// budget, when positive, caps the simulations of a chain-function
	// call: the start check spends one, and the rest is split evenly
	// across the chains. A chain stops before an update once its own
	// probes have spent its share and it has at least 2 samples, so
	// where one chain stops never depends on another's progress. The
	// two-stage flow sets it to what Stage1Budget leaves after
	// Algorithm 4, which is how the paper sizes its comparisons (e.g.,
	// 5000 stage-1 simulations in Table I).
	budget int64
}

// The chain's fixed geometry. zeta bounds every Cartesian and
// orientation coordinate to [−zeta, zeta] (paper §IV-A suggests
// ζ = 8–10); the probability mass outside is negligible (< 1e-15 per
// coordinate). expandStep is the initial bracketing step of the 1-D
// failure-interval search, in σ, and scanPoints the coarse-scan budget
// that recovers a chain point which has drifted out of the failure
// region.
const (
	zeta       = 8
	expandStep = 0.5
	scanPoints = 12
)

func (o *Options) defaults() Options {
	d := Options{Bisections: 6, Epsilon: 1e-2, Chains: 2}
	if o == nil {
		return d
	}
	out := *o
	if out.Bisections <= 0 {
		out.Bisections = d.Bisections
	}
	if out.Epsilon <= 0 {
		out.Epsilon = d.Epsilon
	}
	if out.Chains <= 0 {
		out.Chains = d.Chains
	}
	return out
}

// finiteVec reports whether every coordinate is a normal float.
func finiteVec(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// uniform01 draws from the open interval (0, 1); the inverse-transform
// endpoints map to the interval boundaries, which we keep sampleable but
// never exactly hit.
func uniform01(rng *rand.Rand) float64 {
	for {
		u := rng.Float64()
		if u > 0 && u < 1 {
			return u
		}
	}
}
