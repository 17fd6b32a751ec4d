package mc

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/linalg"
	"repro/internal/stat"
	"repro/internal/surrogate"
)

// workerCounts are the pool sizes every determinism test sweeps.
func workerCounts() []int { return []int{1, 2, 7, runtime.GOMAXPROCS(0)} }

// sameResult compares the fields the determinism guarantee covers.
func sameResult(a, b Result) bool {
	return a.Pf == b.Pf && a.StdErr == b.StdErr && a.RelErr99 == b.RelErr99 &&
		a.N == b.N && a.Failures == b.Failures && a.WeightESS == b.WeightESS
}

func TestImportanceSampleWorkerCountInvariant(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 4}
	g, err := stat.NewMVNormal([]float64{4, 0}, linalg.Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	var ref Result
	for k, workers := range workerCounts() {
		rng := rand.New(rand.NewSource(21))
		res, err := ImportanceSampleContext(context.Background(), NewEvaluator(lin, workers), g, 5000, rng, TraceEvery(500))
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			ref = res
			continue
		}
		if !sameResult(res, ref) {
			t.Fatalf("workers=%d diverged: got (Pf=%v N=%d F=%d), want (Pf=%v N=%d F=%d)",
				workers, res.Pf, res.N, res.Failures, ref.Pf, ref.N, ref.Failures)
		}
		if len(res.Trace) != len(ref.Trace) {
			t.Fatalf("workers=%d trace length diverged", workers)
		}
		for i := range res.Trace {
			if res.Trace[i] != ref.Trace[i] {
				t.Fatalf("workers=%d trace point %d diverged", workers, i)
			}
		}
	}
}

func TestImportanceSampleUntilWorkerCountInvariant(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 4}
	g, err := stat.NewMVNormal([]float64{4, 0}, linalg.Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	var ref Result
	for k, workers := range workerCounts() {
		rng := rand.New(rand.NewSource(22))
		res, err := ImportanceSampleUntilContext(context.Background(), NewEvaluator(lin, workers), g, 0.05, 100, 1000000, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.RelErr99 > 0.05 {
			t.Fatalf("workers=%d missed target: %v after %d", workers, res.RelErr99, res.N)
		}
		if k == 0 {
			ref = res
			continue
		}
		if !sameResult(res, ref) {
			t.Fatalf("workers=%d diverged: got (Pf=%v N=%d F=%d), want (Pf=%v N=%d F=%d)",
				workers, res.Pf, res.N, res.Failures, ref.Pf, ref.N, ref.Failures)
		}
	}
}

// The early-stop loop dispatches whole chunks, so N is always a chunk
// multiple (or maxN) and the simulation count matches N exactly — the
// cost accounting the paper's tables rely on.
func TestImportanceSampleUntilChunkAccounting(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 4}
	g, err := stat.NewMVNormal([]float64{4, 0}, linalg.Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCounter(lin)
	rng := rand.New(rand.NewSource(23))
	res, err := ImportanceSampleUntilContext(context.Background(), NewEvaluator(c, 4), g, 0.05, 100, 1000000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.N) != c.Count() {
		t.Fatalf("N = %d but counter saw %d sims", res.N, c.Count())
	}
	if res.N%ChunkSize != 0 {
		t.Fatalf("N = %d is not a multiple of ChunkSize %d", res.N, ChunkSize)
	}
}
