package mc

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/stat"
	"repro/internal/surrogate"
)

func TestCounterCounts(t *testing.T) {
	m := MetricFunc{M: 2, F: func(x []float64) float64 { return x[0] }}
	c := NewCounter(m)
	if c.Dim() != 2 {
		t.Fatal("dim")
	}
	c.Value([]float64{1, 2})
	c.Value([]float64{-1, 2})
	if c.Count() != 2 {
		t.Fatalf("count = %d", c.Count())
	}
	c.Reset()
	if c.Count() != 0 {
		t.Fatal("reset failed")
	}
}

func TestFailHelper(t *testing.T) {
	m := MetricFunc{M: 1, F: func(x []float64) float64 { return x[0] }}
	if !Fail(m, []float64{-1}) || Fail(m, []float64{1}) {
		t.Fatal("Fail convention broken")
	}
}

func TestPlainMCOnKnownProbability(t *testing.T) {
	// Fail when x₀ < −1: Pf = Φ(−1) ≈ 0.1587.
	m := MetricFunc{M: 1, F: func(x []float64) float64 { return x[0] + 1 }}
	res, err := ParallelMCContext(context.Background(), m, 200000, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := stat.NormCDF(-1)
	if math.Abs(res.Pf-want) > 0.003 {
		t.Fatalf("Pf %v, want %v", res.Pf, want)
	}
	if res.Failures != int(math.Round(res.Pf*float64(res.N))) {
		t.Fatalf("failure count inconsistent: %d vs %v", res.Failures, res.Pf*float64(res.N))
	}
}

func TestPlainMCValidation(t *testing.T) {
	m := MetricFunc{M: 1, F: func(x []float64) float64 { return 1 }}
	if _, err := ParallelMCContext(context.Background(), m, 0, 2, 0, nil); err != ErrBadSampleCount {
		t.Fatal("want ErrBadSampleCount")
	}
}

func TestPlainMCTrace(t *testing.T) {
	m := MetricFunc{M: 1, F: func(x []float64) float64 { return x[0] }}
	res, err := BruteForceStage(NewEvaluator(m, 0), 1000, 3).Run(context.Background(), 0, TraceEvery(100))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 10 {
		t.Fatalf("trace length %d", len(res.Trace))
	}
	for i, tp := range res.Trace {
		if tp.N != (i+1)*100 {
			t.Fatalf("trace N wrong at %d: %d", i, tp.N)
		}
	}
	last := res.Trace[len(res.Trace)-1]
	if last.Estimate != res.Pf {
		t.Fatal("final trace point disagrees with result")
	}
}

func TestImportanceSampleExactOnLinear(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 4} // Pf = Φ(−4) ≈ 3.17e-5
	// Distort with the mean shifted to the boundary.
	g, err := stat.NewMVNormal([]float64{4, 0}, linalg.Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	res, err := ImportanceSampleContext(context.Background(), NewEvaluator(lin, 0), g, 100000, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	exact := lin.ExactPf()
	if math.Abs(res.Pf-exact)/exact > 0.05 {
		t.Fatalf("IS estimate %v, exact %v", res.Pf, exact)
	}
	if res.RelErr99 <= 0 || math.IsInf(res.RelErr99, 1) {
		t.Fatalf("relerr: %v", res.RelErr99)
	}
}

func TestImportanceSampleDimMismatch(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 4}
	g := stat.StandardMVNormal(3)
	rng := rand.New(rand.NewSource(5))
	if _, err := ImportanceSampleContext(context.Background(), NewEvaluator(lin, 0), g, 100, rng, 0); err == nil {
		t.Fatal("expected dim mismatch error")
	}
	if _, err := ImportanceSampleContext(context.Background(), NewEvaluator(lin, 0), stat.StandardMVNormal(2), 0, rng, 0); err != ErrBadSampleCount {
		t.Fatal("want ErrBadSampleCount")
	}
}

// Importance sampling with the *original* distribution reduces to plain
// MC and must agree with the analytic value on an easy region.
func TestImportanceSampleWithIdentityDistortion(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 1} // Pf = Φ(−1)
	g := stat.StandardMVNormal(2)
	rng := rand.New(rand.NewSource(6))
	res, err := ImportanceSampleContext(context.Background(), NewEvaluator(lin, 0), g, 100000, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := stat.NormCDF(-1)
	if math.Abs(res.Pf-want) > 0.004 {
		t.Fatalf("Pf %v want %v", res.Pf, want)
	}
	// Weights must be exactly 0 or 1 here.
	if res.Failures == 0 {
		t.Fatal("no failures")
	}
}

func TestImportanceSampleUntil(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 4}
	g, _ := stat.NewMVNormal([]float64{4, 0}, linalg.Identity(2))
	rng := rand.New(rand.NewSource(7))
	res, err := ImportanceSampleUntilContext(context.Background(), NewEvaluator(lin, 0), g, 0.05, 100, 1000000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.RelErr99 > 0.05 {
		t.Fatalf("missed target: %v after %d", res.RelErr99, res.N)
	}
	if res.N >= 1000000 {
		t.Fatal("should converge well before maxN")
	}
	exact := lin.ExactPf()
	if math.Abs(res.Pf-exact)/exact > 0.1 {
		t.Fatalf("estimate %v vs %v", res.Pf, exact)
	}
}

func TestImportanceSampleUntilRespectsMaxN(t *testing.T) {
	// A hopeless distortion: target unreachable, must stop at maxN.
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 6}
	g := stat.StandardMVNormal(2) // plain MC on a 1e-9 event: never converges
	rng := rand.New(rand.NewSource(8))
	res, err := ImportanceSampleUntilContext(context.Background(), NewEvaluator(lin, 0), g, 0.05, 10, 2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 2000 {
		t.Fatalf("should stop at maxN: %d", res.N)
	}
}

func TestWeightESSPlainMC(t *testing.T) {
	// For indicator weights (0/1), Kish ESS equals the failure count.
	m := MetricFunc{M: 1, F: func(x []float64) float64 { return x[0] }}
	res, err := ParallelMCContext(context.Background(), m, 10000, 9, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.WeightESS-float64(res.Failures)) > 1e-6 {
		t.Fatalf("indicator ESS %v should equal failures %d", res.WeightESS, res.Failures)
	}
}

func TestWeightESSFlagsBadDistortion(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 4}
	good, _ := stat.NewMVNormal([]float64{4.3, 0}, linalg.Identity(2))
	bad, _ := stat.NewMVNormal([]float64{8, 0}, linalg.Identity(2)) // overshoots the boundary
	rng := rand.New(rand.NewSource(10))
	rGood, err := ImportanceSampleContext(context.Background(), NewEvaluator(lin, 0), good, 20000, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	rBad, err := ImportanceSampleContext(context.Background(), NewEvaluator(lin, 0), bad, 20000, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rGood.WeightESS <= rBad.WeightESS {
		t.Fatalf("well-placed distortion should have higher ESS: %v vs %v",
			rGood.WeightESS, rBad.WeightESS)
	}
	if rGood.WeightESS < 1000 {
		t.Fatalf("good distortion ESS suspiciously low: %v", rGood.WeightESS)
	}
}
