package gibbs

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/mc"
	"repro/internal/surrogate"
)

// The engine's determinism guarantee, end to end through Algorithm 5:
// the same seed must produce bit-identical estimates for every worker
// count — the first stage is sequential and the second stage seeds each
// sample from its index, never from the worker that ran it.

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
