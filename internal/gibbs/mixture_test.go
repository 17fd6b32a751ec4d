package gibbs

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mc"
	"repro/internal/surrogate"
)

// The §IV-C mixture extension on a genuinely two-lobe region: the
// series-stack union {x₀ > A} ∪ {x₁ > A}. A single-Normal G-S fit covers
// both lobes only through an inflated covariance; a two-component mixture
// matches each lobe. Both must be unbiased; the mixture must be more
// efficient (smaller relative error at equal budgets).
func TestMixtureDistortionOnTwoLobes(t *testing.T) {
	region := &surrogate.SeriesStack{A: 4.2}
	exact := region.ExactPf()

	run := func(mixture int, seed int64) (pf, relerr float64) {
		counter := mc.NewCounter(region)
		rng := rand.New(rand.NewSource(seed))
		res, err := TwoStageContext(context.Background(), counter, TwoStageOptions{
			Coord: Spherical, K: 1200, N: 8000, Mixture: mixture,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if mixture >= 2 && res.GMix == nil {
			t.Fatal("mixture requested but not fitted")
		}
		return res.Pf, res.RelErr99
	}

	var pfN, pfM, reN, reM float64
	const nSeeds = 3
	for s := int64(0); s < nSeeds; s++ {
		p, r := run(0, 300+s)
		pfN += p / nSeeds
		reN += r / nSeeds
		p, r = run(2, 400+s)
		pfM += p / nSeeds
		reM += r / nSeeds
	}
	if math.Abs(pfM-exact)/exact > 0.2 {
		t.Fatalf("mixture G-S biased: %v vs exact %v", pfM, exact)
	}
	if math.Abs(pfN-exact)/exact > 0.5 {
		t.Fatalf("normal G-S wildly off: %v vs exact %v", pfN, exact)
	}
	if reM >= reN {
		t.Fatalf("mixture should be more efficient: relerr %v vs %v", reM, reN)
	}
}

func TestMixtureValidation(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 4}
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(1))
	// Mixture with too few samples for the requested components errors.
	_, err := TwoStageContext(context.Background(), counter, TwoStageOptions{
		Coord: Cartesian, K: 3, N: 100, Mixture: 2,
	}, rng)
	if err == nil {
		t.Fatal("expected mixture-fit error with K=3")
	}
}

func TestMixtureSingleComponentDegenerates(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 6}
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(2))
	res, err := TwoStageContext(context.Background(), counter, TwoStageOptions{
		Coord: Spherical, K: 300, N: 3000, Mixture: 1,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.GMix != nil {
		t.Fatal("Mixture=1 should keep the plain Normal path")
	}
	exact := lin.ExactPf()
	if math.Abs(res.Pf-exact)/exact > 0.15 {
		t.Fatalf("estimate %v vs %v", res.Pf, exact)
	}
}
