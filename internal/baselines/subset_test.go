package baselines

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mc"
	"repro/internal/surrogate"
)

func TestSubsetOnLinearMetric(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 6} // Pf ≈ 1.10e-5
	exact := lin.ExactPf()
	// Average a few runs: subset simulation has chain-correlation noise.
	var avg float64
	const runs = 4
	for s := int64(0); s < runs; s++ {
		counter := mc.NewCounter(lin)
		rng := rand.New(rand.NewSource(100 + s))
		res, err := SubsetContext(context.Background(), counter, SubsetOptions{Particles: 800}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sims <= 0 || len(res.Levels) == 0 {
			t.Fatal("missing diagnostics")
		}
		avg += res.Pf / runs
	}
	if math.Abs(avg-exact)/exact > 0.4 {
		t.Fatalf("subset avg %v vs exact %v", avg, exact)
	}
}

func TestSubsetLadderDescends(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 5}
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(1))
	res, err := SubsetContext(context.Background(), counter, SubsetOptions{Particles: 600}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Levels); i++ {
		if res.Levels[i] >= res.Levels[i-1] {
			t.Fatalf("ladder not descending: %v", res.Levels)
		}
	}
	if last := res.Levels[len(res.Levels)-1]; last != 0 {
		t.Fatalf("ladder must end at the true level: %v", last)
	}
}

func TestSubsetModerateProbabilityShortLadder(t *testing.T) {
	// Pf ≈ 0.16: the very first population already fails enough, so the
	// ladder has a single level.
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 1}
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(2))
	res, err := SubsetContext(context.Background(), counter, SubsetOptions{Particles: 500}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 1 {
		t.Fatalf("expected single-level ladder, got %v", res.Levels)
	}
	exact := lin.ExactPf()
	if math.Abs(res.Pf-exact)/exact > 0.25 {
		t.Fatalf("Pf %v vs %v", res.Pf, exact)
	}
}

func TestSubsetValidation(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 3}
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(3))
	if _, err := SubsetContext(context.Background(), counter, SubsetOptions{Particles: 5, P0: 0.1}, rng); err == nil {
		t.Fatal("expected keep<2 validation error")
	}
	// A region that is unreachable within the stage cap must error, not
	// loop forever.
	never := mc.MetricFunc{M: 2, F: func(x []float64) float64 { return 1 + x[0]*0 }}
	counterN := mc.NewCounter(never)
	if _, err := SubsetContext(context.Background(), counterN, SubsetOptions{Particles: 100, MaxStages: 3}, rng); err == nil {
		t.Fatal("expected ladder-exhaustion error")
	}
}

// Subset simulation's selling point: rare events with far fewer
// simulations than 1/Pf.
func TestSubsetSimBudget(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1, 1}, B: 8} // Pf ≈ 1.9e-6
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(4))
	res, err := SubsetContext(context.Background(), counter, SubsetOptions{Particles: 600}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sims > 30000 {
		t.Fatalf("subset burned %d sims — defeats its purpose", res.Sims)
	}
	if res.Pf <= 0 {
		t.Fatal("zero estimate")
	}
}
