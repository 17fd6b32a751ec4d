package gibbs

import (
	"context"
	"fmt"
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
// simulation is slow. With one chain, from 2 workers on, each interval
// search probes its two edges at once, so two simulations are in
// flight; at 1 worker never more than one. With two chains the chains
// run at once from 2 workers on, and at 7 each chain's share (3
// workers) also forks its edges, so 1, 2 and 4 are in flight. The
// chains themselves must not notice: the samples, Stage1Sims and the
// probes per update are identical at every worker count.
func TestStage1OverlapsIntervalEdges(t *testing.T) {
	for _, tc := range []struct {
		chains int
		want   map[int]int64 // workers → simulations in flight at most
	}{
		{1, map[int]int64{1: 1, 2: 2, 7: 2}},
		{2, map[int]int64{1: 1, 2: 2, 7: 4}},
	} {
		for _, coord := range []Coord{Spherical, Cartesian} {
			name := coord.String()
			if tc.chains > 1 {
				name += fmt.Sprintf("_chains%d", tc.chains)
			}
			t.Run(name, func(t *testing.T) {
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
						Chain: &Options{Chains: tc.chains},
					}, rand.New(rand.NewSource(5)))
					if err != nil {
						t.Fatal(err)
					}
					if got, want := metric.calls.peak.Load(), tc.want[workers]; got != want {
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
					sameSamples(t, fmt.Sprintf("workers=%d", workers), res.Samples, ref.Samples)
				}
			})
		}
	}
}

// sameSamples fails unless got and want hold the same samples bit for
// bit, in the same order.
func sameSamples(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i, x := range got {
		for j := range x {
			if math.Float64bits(x[j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: sample %d is %v, want %v", what, i, x, want[i])
			}
		}
	}
}
