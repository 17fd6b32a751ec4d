package baselines

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/mc"
	"repro/internal/surrogate"
)

func TestMISOnLinearMetric(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 6} // Pf = Φ(−6/√2) ≈ 1.10e-5
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(1))
	res, err := MISContext(context.Background(), counter, MISOptions{Stage1: 3000, N: 30000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	exact := lin.ExactPf()
	if math.Abs(res.Pf-exact)/exact > 0.2 {
		t.Fatalf("MIS estimate %v, exact %v", res.Pf, exact)
	}
	if res.Stage1Sims != 3000 || res.Stage2Sims != 30000 {
		t.Fatalf("stage accounting: %d/%d", res.Stage1Sims, res.Stage2Sims)
	}
	// The centroid must point along (1,1).
	if res.Mean[0] < 2 || math.Abs(res.Mean[0]-res.Mean[1]) > 1.0 {
		t.Fatalf("MIS mean implausible: %v", res.Mean)
	}
}

func TestMNISOnLinearMetric(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{2, 1}, B: 9} // boundary at 9/√5 ≈ 4.02σ
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(2))
	res, err := MNISContext(context.Background(), counter, MNISOptions{N: 30000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	exact := lin.ExactPf()
	if math.Abs(res.Pf-exact)/exact > 0.2 {
		t.Fatalf("MNIS estimate %v, exact %v", res.Pf, exact)
	}
	// Mean must sit at the min-norm boundary point.
	if math.Abs(linalg.Norm2(res.Mean)-9/math.Sqrt(5)) > 0.15 {
		t.Fatalf("MNIS mean norm %v, want ≈%v", linalg.Norm2(res.Mean), 9/math.Sqrt(5))
	}
}

func TestMISNoFailures(t *testing.T) {
	never := mc.MetricFunc{M: 2, F: func([]float64) float64 { return 1 }}
	counter := mc.NewCounter(never)
	rng := rand.New(rand.NewSource(3))
	if _, err := MISContext(context.Background(), counter, MISOptions{Stage1: 200, N: 100}, rng); err != ErrNoFailures {
		t.Fatalf("want ErrNoFailures, got %v", err)
	}
}

func TestMISValidation(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 6}
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(4))
	if _, err := MISContext(context.Background(), counter, MISOptions{Stage1: 0, N: 10}, rng); err == nil {
		t.Fatal("expected stage1 validation error")
	}
	if _, err := MISContext(context.Background(), counter, MISOptions{Stage1: 10, N: 0}, rng); err == nil {
		t.Fatal("expected N validation error")
	}
	if _, err := MNISContext(context.Background(), counter, MNISOptions{N: 0}, rng); err == nil {
		t.Fatal("expected MNIS N validation error")
	}
}

func TestMISUntilTarget(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 4.2}
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(5))
	res, err := MISContext(context.Background(), counter, MISOptions{Stage1: 2000, Target: 0.10, N: 500000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.RelErr99 > 0.10 {
		t.Fatalf("target missed: %v after %d", res.RelErr99, res.N)
	}
	exact := lin.ExactPf()
	if math.Abs(res.Pf-exact)/exact > 0.2 {
		t.Fatalf("estimate %v, exact %v", res.Pf, exact)
	}
}

func TestMNISUntilTarget(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0.5}, B: 5}
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(6))
	res, err := MNISContext(context.Background(), counter, MNISOptions{Target: 0.10, N: 500000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.RelErr99 > 0.10 {
		t.Fatalf("target missed: %v", res.RelErr99)
	}
	exact := lin.ExactPf()
	if math.Abs(res.Pf-exact)/exact > 0.2 {
		t.Fatalf("estimate %v, exact %v", res.Pf, exact)
	}
}

// Mean-shift methods underestimate on the wide arc (the §V-B failure
// mode) while still converging on well-behaved regions — the contrast the
// paper's Table II reports.
func TestMNISUnderestimatesOnArc(t *testing.T) {
	arc := &surrogate.Arc{R: 4.2, HalfAngle: 2.8}
	exact := arc.ExactPf()
	var avg float64
	const nSeeds = 3
	for s := int64(0); s < nSeeds; s++ {
		counter := mc.NewCounter(arc)
		rng := rand.New(rand.NewSource(50 + s))
		res, err := MNISContext(context.Background(), counter, MNISOptions{N: 8000}, rng)
		if err != nil {
			t.Fatal(err)
		}
		avg += res.Pf / nSeeds
	}
	if avg > 0.8*exact {
		t.Fatalf("MNIS should underestimate on the arc: %v vs %v", avg, exact)
	}
}
