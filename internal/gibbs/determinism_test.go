package gibbs

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mc"
	"repro/internal/surrogate"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The engine's determinism guarantee, end to end through Algorithm 5:
// the same seed must produce bit-identical estimates for every worker
// count — the first stage probes the same points whichever goroutine
// searches each interval edge, and the second stage seeds each sample
// from its index, never from the worker that ran it.

func workerCounts() []int { return []int{1, 2, 7, runtime.GOMAXPROCS(0)} }

func runTwoStage(t *testing.T, workers int) *TwoStageResult {
	t.Helper()
	lin := &surrogate.Linear{W: []float64{1, 1, 1}, B: 7}
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(31))
	res, err := TwoStageContext(context.Background(), counter, TwoStageOptions{
		Coord: Spherical, K: 300, N: 3000, Workers: workers,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTwoStageWorkerCountInvariant(t *testing.T) {
	ref := runTwoStage(t, 1)
	for _, workers := range workerCounts()[1:] {
		res := runTwoStage(t, workers)
		if res.Pf != ref.Pf || res.N != ref.N || res.Failures != ref.Failures {
			t.Fatalf("workers=%d diverged: got (Pf=%v N=%d F=%d), want (Pf=%v N=%d F=%d)",
				workers, res.Pf, res.N, res.Failures, ref.Pf, ref.N, ref.Failures)
		}
		if res.StdErr != ref.StdErr || res.WeightESS != ref.WeightESS {
			t.Fatalf("workers=%d error bars diverged", workers)
		}
		if res.Stage1Sims != ref.Stage1Sims || res.Stage2Sims != ref.Stage2Sims {
			t.Fatalf("workers=%d stage accounting diverged: %d/%d vs %d/%d",
				workers, res.Stage1Sims, res.Stage2Sims, ref.Stage1Sims, ref.Stage2Sims)
		}
	}
}

func runTwoStageUntil(t *testing.T, workers int) *TwoStageResult {
	t.Helper()
	lin := &surrogate.Linear{W: []float64{1, 1, 1}, B: 7}
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(32))
	res, err := TwoStageContext(context.Background(), counter, TwoStageOptions{
		Coord: Spherical, K: 300, Workers: workers, Target: 0.05, N: 200000,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTwoStageUntilWorkerCountInvariant(t *testing.T) {
	ref := runTwoStageUntil(t, 1)
	if ref.RelErr99 > 0.05 {
		t.Fatalf("missed target: %v after %d", ref.RelErr99, ref.N)
	}
	for _, workers := range workerCounts()[1:] {
		res := runTwoStageUntil(t, workers)
		if res.Pf != ref.Pf || res.N != ref.N || res.Failures != ref.Failures {
			t.Fatalf("workers=%d diverged: got (Pf=%v N=%d F=%d), want (Pf=%v N=%d F=%d)",
				workers, res.Pf, res.N, res.Failures, ref.Pf, ref.N, ref.Failures)
		}
		if res.Stage2Sims != ref.Stage2Sims {
			t.Fatalf("workers=%d stage-2 cost diverged: %d vs %d",
				workers, res.Stage2Sims, ref.Stage2Sims)
		}
	}
}

// inFlight records the largest number of slow calls in flight at once.
// Each call sleeps 200 µs, well past forkMinProbe, so an interval search
// forks, and two calls issued concurrently are certain to overlap.
type inFlight struct{ now, peak atomic.Int64 }

func (f *inFlight) slowCall() {
	n := f.now.Add(1)
	defer f.now.Add(-1)
	for p := f.peak.Load(); n > p && !f.peak.CompareAndSwap(p, n); p = f.peak.Load() {
	}
	time.Sleep(200 * time.Microsecond)
}

// overlapMetric wraps a metric and makes every Value call a slow one.
type overlapMetric struct {
	mc.Metric
	calls inFlight
}

func (m *overlapMetric) Value(x []float64) float64 {
	m.calls.slowCall()
	return m.Metric.Value(x)
}

// probeSum reads the total of the chain's probes_per_update histogram.
func probeSum(reg *telemetry.Registry) float64 {
	for _, p := range reg.Snapshot() {
		if p.Scope == wire.ScopeGibbs && p.Name == "probes_per_update" {
			return p.Sum
		}
	}
	return -1
}

// TestStage1OverlapsIntervalEdges runs stage 1 from a pinned start (no
// Algorithm 4 search) at 1, 2 and 7 workers on a metric whose every
// simulation is slow. From 2 workers on, each interval search probes
// its two edges at once, so two simulations are in flight; at 1 worker
// never more than one. The chain itself must not notice: the samples,
// Stage1Sims and the probes per update are identical at every worker
// count.
func TestStage1OverlapsIntervalEdges(t *testing.T) {
	for _, coord := range []Coord{Spherical, Cartesian} {
		t.Run(coord.String(), func(t *testing.T) {
			var (
				ref       *TwoStageResult
				refProbes float64
			)
			for _, workers := range []int{1, 2, 7} {
				metric := &overlapMetric{Metric: &surrogate.Linear{W: []float64{1, 1, 1}, B: 7}}
				reg := telemetry.New()
				res, _, err := TwoStagePrefix(context.Background(), mc.NewCounter(metric), TwoStageOptions{
					Coord: coord, K: 20, N: 1, Workers: workers,
					StartPoint: []float64{3, 3, 3}, Telemetry: reg,
				}, rand.New(rand.NewSource(5)))
				if err != nil {
					t.Fatal(err)
				}
				want := int64(2)
				if workers == 1 {
					want = 1
				}
				if got := metric.calls.peak.Load(); got != want {
					t.Fatalf("workers=%d: %d simulations in flight at most, want %d", workers, got, want)
				}
				probes := probeSum(reg)
				if probes <= 0 {
					t.Fatalf("workers=%d: no probes_per_update observations", workers)
				}
				if ref == nil {
					ref, refProbes = res, probes
					continue
				}
				if res.Stage1Sims != ref.Stage1Sims || probes != refProbes {
					t.Fatalf("workers=%d: %d stage-1 sims and %v probes, want %d and %v",
						workers, res.Stage1Sims, probes, ref.Stage1Sims, refProbes)
				}
				if len(res.Samples) != len(ref.Samples) {
					t.Fatalf("workers=%d: %d samples, want %d", workers, len(res.Samples), len(ref.Samples))
				}
				for i, x := range res.Samples {
					for j := range x {
						if math.Float64bits(x[j]) != math.Float64bits(ref.Samples[i][j]) {
							t.Fatalf("workers=%d: sample %d is %v, want %v", workers, i, x, ref.Samples[i])
						}
					}
				}
			}
		})
	}
}
