package gibbs

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Chain telemetry lives in the "gibbs" scope:
//
//	updates_total                  coordinate updates attempted
//	resampled_total                updates that drew from a failure interval
//	recovered_total                resampled updates that needed the
//	                               coarse recovery scan (chain drifted out)
//	kept_total                     updates where no interval was found
//	coord_<name>_resampled_total   per-coordinate resample counts
//	probes_per_update              simulations per interval search
//	chain_ess / chain_acceptance   gauges refreshed at the end of a call
//
// plus one "gibbs.chain" event per chain-function call carrying the
// mixing diagnostics (ESS summed over the call's chains, worst
// integrated autocorrelation time, acceptance, per-coordinate resample
// counts, the number of chains).

var probeBuckets = telemetry.ExpBuckets(1, 2, 8) // 1 .. 128 sims/update

// chainTelemetry accumulates the interval-search statistics of one
// chain-function call, whichever of its chains made them. The live
// counters feed /metrics; the plain-int tallies feed the end-of-call
// event. The chains, which may run at once, update both after each
// update's interval search has joined, one update at a time under mu
// (about a thousand a run), so progress counts the pooled samples. A
// nil *chainTelemetry is fully inert.
type chainTelemetry struct {
	reg        *telemetry.Registry
	coordNames []string

	updates, resampled, recovered, kept *telemetry.Counter
	perCoord                            []*telemetry.Counter
	probes                              *telemetry.Histogram

	mu         sync.Mutex
	nUpdates   int     // guarded by mu
	nResampled int     // guarded by mu
	nRecovered int     // guarded by mu
	nKept      int     // guarded by mu
	byCoord    []int64 // guarded by mu

	// Stage-1 progress: the chains produce one sample per coordinate
	// update, so nUpdates doubles as the samples-done count against the
	// target K. Every progressStride updates a "progress" event goes
	// out with the measured update throughput and the ETA to K, and the
	// shared "progress" scope gauges are refreshed (the same gauges the
	// second stage writes — the job status API reads whichever stage is
	// live).
	target  int
	start   time.Time
	nProbes int64 // guarded by mu
	gRate   *telemetry.Gauge
	gETA    *telemetry.Gauge
	gN      *telemetry.Gauge
	gTotal  *telemetry.Gauge
}

// progressStride throttles stage-1 progress events: one per this many
// coordinate updates (a K=1000 chain emits ~31).
const progressStride = 32

// cartesianCoordNames labels Algorithm 1's coordinates x0..x{M-1};
// sphericalCoordNames labels Algorithm 2's redundant set r, a0..a{M-1}.
func cartesianCoordNames(dim int) []string {
	names := make([]string, dim)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	return names
}

func sphericalCoordNames(dim int) []string {
	names := make([]string, dim+1)
	names[0] = "r"
	for i := 0; i < dim; i++ {
		names[i+1] = fmt.Sprintf("a%d", i)
	}
	return names
}

func newChainTelemetry(reg *telemetry.Registry, coordNames []string, target int) *chainTelemetry {
	if reg == nil {
		return nil
	}
	s := reg.Scope(wire.ScopeGibbs)
	prog := reg.Scope(wire.ScopeProgress)
	ct := &chainTelemetry{
		reg:        reg,
		coordNames: coordNames,
		updates:    s.Counter("updates_total"),
		resampled:  s.Counter("resampled_total"),
		recovered:  s.Counter("recovered_total"),
		kept:       s.Counter("kept_total"),
		probes:     s.Histogram("probes_per_update", probeBuckets),
		byCoord:    make([]int64, len(coordNames)),
		target:     target,
		start:      time.Now(),
		gRate:      prog.Gauge("sims_per_sec"),
		gETA:       prog.Gauge("eta_seconds"),
		gN:         prog.Gauge("n"),
		gTotal:     prog.Gauge("total"),
	}
	for _, n := range coordNames {
		ct.perCoord = append(ct.perCoord, s.Counter("coord_"+n+"_resampled_total"))
	}
	ct.gTotal.Set(float64(target))
	return ct
}

// update records one coordinate update: which coordinate, how the
// interval search ended, and how many simulations it probed.
func (t *chainTelemetry) update(coord int, st intervalStatus, probes int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nUpdates++
	t.updates.Inc()
	t.probes.Observe(float64(probes))
	switch st {
	case intervalNone:
		t.nKept++
		t.kept.Inc()
	default:
		t.nResampled++
		t.resampled.Inc()
		t.perCoord[coord].Inc()
		t.byCoord[coord]++
		if st == intervalRecovered {
			t.nRecovered++
			t.recovered.Inc()
		}
	}
	t.nProbes += int64(probes)
	if t.nUpdates%progressStride == 0 {
		t.progressLocked()
	}
}

// progressLocked publishes a throttled stage-1 snapshot: the pooled
// samples against the call's sample target, the measured simulation
// throughput (the interval search runs several simulations per update,
// so sims/sec is tallied from probe counts, not updates), and the finite
// ETA to the target. Reads only the wall clock and tallies — the chains'
// random streams are untouched. The caller holds t.mu.
func (t *chainTelemetry) progressLocked() {
	elapsed := time.Since(t.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(t.nProbes) / elapsed
	}
	eta := 0.0
	if t.nUpdates > 0 && t.target > t.nUpdates {
		perUpdate := elapsed / float64(t.nUpdates)
		eta = float64(t.target-t.nUpdates) * perUpdate
	}
	t.gN.Set(float64(t.nUpdates))
	t.gRate.Set(rate)
	t.gETA.Set(eta)
	t.reg.Emit(wire.EvProgress, map[string]any{
		"stage": "stage1", "n": t.nUpdates, "total": t.target,
		"resampled": t.nResampled, "sims": t.nProbes,
		"sims_per_sec": rate, "eta_seconds": eta,
	})
}

// done computes the mixing diagnostics of the finished call from its
// chains' samples and emits the "gibbs.chain" event (also refreshing
// the chain_ess and chain_acceptance gauges). The ESS is the sum of the
// chains' own, and tau_max the worst chain's integrated autocorrelation
// time; both are left out when a chain is too short to measure.
func (t *chainTelemetry) done(coord Coord, chains [][][]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := 0
	for _, c := range chains {
		k += len(c)
	}
	acceptance := 0.0
	if t.nUpdates > 0 {
		acceptance = float64(t.nResampled) / float64(t.nUpdates)
	}
	fields := map[string]any{
		"coord":              coord.String(),
		"k":                  k,
		"chains":             len(chains),
		"updates":            t.nUpdates,
		"resampled":          t.nResampled,
		"recovered":          t.nRecovered,
		"kept":               t.nKept,
		"acceptance":         acceptance,
		"coords":             t.coordNames,
		"resampled_by_coord": t.byCoord,
	}
	t.gETA.Set(0)
	s := t.reg.Scope(wire.ScopeGibbs)
	s.Gauge("chain_acceptance").Set(acceptance)
	if ess, tauMax, err := chainsESS(chains); err == nil {
		fields["ess"] = ess
		fields["tau_max"] = tauMax
		s.Gauge("chain_ess").Set(ess)
	}
	t.reg.Emit(wire.EvGibbsChain, fields)
}

// chainsESS sums the chains' effective sample sizes and returns the
// worst chain's integrated autocorrelation time (its length over its
// ESS); it fails when a chain is too short to measure.
func chainsESS(chains [][][]float64) (ess, tauMax float64, err error) {
	for _, c := range chains {
		e, err := EffectiveSampleSize(c)
		if err != nil {
			return 0, 0, err
		}
		ess += e
		if tau := float64(len(c)) / e; tau > tauMax {
			tauMax = tau
		}
	}
	return ess, tauMax, nil
}
