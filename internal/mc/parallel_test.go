package mc

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/stat"
)

func TestParallelMCMatchesAnalytic(t *testing.T) {
	m := MetricFunc{M: 2, F: func(x []float64) float64 { return x[0] + x[1] + 1 }}
	res, err := ParallelMCContext(context.Background(), m, 400000, 42, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pf = P(x₀+x₁ < −1) = Φ(−1/√2) ≈ 0.2398.
	want := stat.NormCDF(-1 / math.Sqrt(2))
	if math.Abs(res.Pf-want) > 0.004 {
		t.Fatalf("parallel Pf %v, want %v", res.Pf, want)
	}
	if res.N != 400000 {
		t.Fatalf("N = %d", res.N)
	}
}

func TestParallelMCBadSampleCount(t *testing.T) {
	m := MetricFunc{M: 2, F: func(x []float64) float64 { return 1 }}
	if _, err := ParallelMCContext(context.Background(), m, 0, 1, 4, nil); err != ErrBadSampleCount {
		t.Fatal("want ErrBadSampleCount for n = 0")
	}
	if _, err := ParallelMCContext(context.Background(), m, -5, 1, 4, nil); err != ErrBadSampleCount {
		t.Fatal("want ErrBadSampleCount for n < 0")
	}
}

// The estimate must be bit-identical for every worker count, including
// counts that do not divide n and counts larger than n.
func TestParallelMCWorkerCountInvariant(t *testing.T) {
	m := MetricFunc{M: 3, F: func(x []float64) float64 { return x[0] + 0.5*x[1] - 0.2*x[2] + 1.5 }}
	const n = 1003 // prime-ish: n % workers != 0 for every tested pool
	ref, err := ParallelMCContext(context.Background(), m, n, 7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.N != n {
		t.Fatalf("N = %d, want %d", ref.N, n)
	}
	for _, workers := range []int{2, 3, 7, 16, runtime.GOMAXPROCS(0)} {
		res, err := ParallelMCContext(context.Background(), m, n, 7, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Pf != ref.Pf || res.N != ref.N || res.Failures != ref.Failures {
			t.Fatalf("workers=%d diverged: got (Pf=%v N=%d F=%d), want (Pf=%v N=%d F=%d)",
				workers, res.Pf, res.N, res.Failures, ref.Pf, ref.N, ref.Failures)
		}
		if res.StdErr != ref.StdErr || res.RelErr99 != ref.RelErr99 {
			t.Fatalf("workers=%d error bars diverged", workers)
		}
	}
}

// More workers than samples must clamp the pool, not break the tally.
func TestParallelMCWorkersExceedSamples(t *testing.T) {
	m := MetricFunc{M: 1, F: func(x []float64) float64 { return 1 }}
	res, err := ParallelMCContext(context.Background(), m, 3, 7, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 3 || res.Failures != 0 {
		t.Fatalf("edge partition: %+v", res)
	}
	if !math.IsInf(res.RelErr99, 1) {
		t.Fatal("zero-failure relerr should be +Inf")
	}
}

// Brute-force MC must agree with the analytic value on a linear metric
// and account every simulation exactly through the pool.
func TestParallelMCAgreesWithSerial(t *testing.T) {
	m := MetricFunc{M: 1, F: func(x []float64) float64 { return x[0] + 1 }}
	const n = 200000
	par, err := ParallelMCContext(context.Background(), m, n, 11, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := stat.NormCDF(-1)
	if math.Abs(par.Pf-want) > 0.003 {
		t.Fatalf("parallel Pf %v, want %v", par.Pf, want)
	}
	if par.Failures != int(math.Round(par.Pf*float64(par.N))) {
		t.Fatalf("failure count inconsistent: %d vs %v", par.Failures, par.Pf*float64(par.N))
	}
	// Exact simulation-count accounting survives the pool.
	c := NewCounter(m)
	if _, err := ParallelMCContext(context.Background(), c, n, 11, 4, nil); err != nil {
		t.Fatal(err)
	}
	if c.Count() != n {
		t.Fatalf("counter saw %d sims, want %d", c.Count(), n)
	}
}
