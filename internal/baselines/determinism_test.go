package baselines

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/mc"
	"repro/internal/surrogate"
)

// Every baseline routes its simulations through the shared evaluation
// pool, so the worker count must never change an estimate — only how
// fast it arrives. Each sweep compares against a fresh workers=1 run.

func poolSizes() []int { return []int{1, 2, 7, runtime.GOMAXPROCS(0)} }

func TestMISWorkerCountInvariant(t *testing.T) {
	run := func(workers int) *Result {
		lin := &surrogate.Linear{W: []float64{1, 1}, B: 6}
		counter := mc.NewCounter(lin)
		rng := rand.New(rand.NewSource(41))
		res, err := MISContext(context.Background(), counter, MISOptions{Stage1: 2000, N: 20000, Workers: workers}, rng)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, workers := range poolSizes()[1:] {
		res := run(workers)
		if res.Pf != ref.Pf || res.N != ref.N || res.Failures != ref.Failures {
			t.Fatalf("workers=%d diverged: got (Pf=%v N=%d F=%d), want (Pf=%v N=%d F=%d)",
				workers, res.Pf, res.N, res.Failures, ref.Pf, ref.N, ref.Failures)
		}
		for j := range res.Mean {
			if res.Mean[j] != ref.Mean[j] {
				t.Fatalf("workers=%d shifted the stage-1 centroid", workers)
			}
		}
	}
}

func TestSubsetWorkerCountInvariant(t *testing.T) {
	run := func(workers int) *SubsetResult {
		lin := &surrogate.Linear{W: []float64{1, 1}, B: 6}
		counter := mc.NewCounter(lin)
		rng := rand.New(rand.NewSource(42))
		res, err := SubsetContext(context.Background(), counter, SubsetOptions{Particles: 400, Workers: workers}, rng)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, workers := range poolSizes()[1:] {
		res := run(workers)
		if res.Pf != ref.Pf || res.Sims != ref.Sims || len(res.Levels) != len(ref.Levels) {
			t.Fatalf("workers=%d diverged: got (Pf=%v sims=%d levels=%d), want (Pf=%v sims=%d levels=%d)",
				workers, res.Pf, res.Sims, len(res.Levels), ref.Pf, ref.Sims, len(ref.Levels))
		}
		for i := range res.Levels {
			if res.Levels[i] != ref.Levels[i] {
				t.Fatalf("workers=%d ladder level %d diverged", workers, i)
			}
		}
	}
}

func TestBlockadeWorkerCountInvariant(t *testing.T) {
	run := func(workers int) *BlockadeResult {
		lin := &surrogate.Linear{W: []float64{1, 1}, B: 3}
		counter := mc.NewCounter(lin)
		rng := rand.New(rand.NewSource(43))
		res, err := BlockadeContext(context.Background(), counter, BlockadeOptions{Train: 500, N: 20000, Workers: workers}, rng)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, workers := range poolSizes()[1:] {
		res := run(workers)
		if res.Pf != ref.Pf || res.N != ref.N || res.Failures != ref.Failures {
			t.Fatalf("workers=%d diverged: got (Pf=%v N=%d F=%d), want (Pf=%v N=%d F=%d)",
				workers, res.Pf, res.N, res.Failures, ref.Pf, ref.N, ref.Failures)
		}
		if res.TrainSims != ref.TrainSims || res.TailSims != ref.TailSims ||
			res.ResidualSigma != ref.ResidualSigma {
			t.Fatalf("workers=%d cost split diverged: train %d/%d tail %d/%d",
				workers, res.TrainSims, ref.TrainSims, res.TailSims, ref.TailSims)
		}
	}
}
