package gibbs

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/surrogate"
)

func TestAutocorrelationIID(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	r0, err := Autocorrelation(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r0-1) > 1e-2 {
		t.Fatalf("lag-0 autocorrelation %v", r0)
	}
	r1, err := Autocorrelation(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1) > 0.03 {
		t.Fatalf("iid lag-1 autocorrelation %v", r1)
	}
}

func TestAutocorrelationAR1(t *testing.T) {
	// AR(1) with φ = 0.8: ρ(k) = 0.8^k, τ = (1+φ)/(1−φ) = 9.
	rng := rand.New(rand.NewSource(2))
	const phi = 0.8
	xs := make([]float64, 200000)
	x := 0.0
	for i := range xs {
		x = phi*x + rng.NormFloat64()
		xs[i] = x
	}
	r1, err := Autocorrelation(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1-phi) > 0.02 {
		t.Fatalf("AR1 lag-1 %v, want %v", r1, phi)
	}
	tau, err := IntegratedAutocorrTime(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tau-9) > 1.5 {
		t.Fatalf("τ = %v, want ≈9", tau)
	}
}

func TestAutocorrelationValidation(t *testing.T) {
	if _, err := Autocorrelation([]float64{1, 2, 3}, 5); err == nil {
		t.Fatal("lag out of range should error")
	}
	if _, err := Autocorrelation([]float64{2, 2, 2, 2}, 1); !errors.Is(err, ErrConstantChain) {
		t.Fatalf("constant series: got %v, want ErrConstantChain", err)
	}
	if _, err := IntegratedAutocorrTime([]float64{1, 2}); !errors.Is(err, ErrShortChain) {
		t.Fatalf("short series: got %v, want ErrShortChain", err)
	}
	if _, err := EffectiveSampleSize([][]float64{{1}, {2}}); !errors.Is(err, ErrShortChain) {
		t.Fatalf("short stream: got %v, want ErrShortChain", err)
	}
}

// Satellite edge cases: every degenerate input must surface a typed
// error — never a NaN result.
func TestRHatEdgeCases(t *testing.T) {
	if _, err := RHat([][]float64{{1, 2, 3, 4}}); !errors.Is(err, ErrSingleChain) {
		t.Fatalf("single chain: got %v, want ErrSingleChain", err)
	}
	if _, err := RHat([][]float64{{1, 2, 3}, {4, 5, 6}}); !errors.Is(err, ErrShortChain) {
		t.Fatalf("short chains: got %v, want ErrShortChain", err)
	}
	if _, err := RHat([][]float64{{1, 2, 3, 4}, {1, 2, 3}}); err == nil {
		t.Fatal("unequal chain lengths should error")
	}
	if _, err := RHat([][]float64{{7, 7, 7, 7}, {7, 7, 7, 7}}); !errors.Is(err, ErrConstantChain) {
		t.Fatalf("constant chains: got %v, want ErrConstantChain", err)
	}
	// Frozen at different values still has zero within-chain variance.
	if _, err := RHat([][]float64{{1, 1, 1, 1}, {2, 2, 2, 2}}); !errors.Is(err, ErrConstantChain) {
		t.Fatalf("frozen-apart chains: got %v, want ErrConstantChain", err)
	}
}

func TestSplitRHatEdgeCases(t *testing.T) {
	if _, err := SplitRHat([]float64{1, 2, 3, 4, 5, 6, 7}); !errors.Is(err, ErrShortChain) {
		t.Fatalf("series shorter than split length: got %v, want ErrShortChain", err)
	}
	if _, err := SplitRHat([]float64{3, 3, 3, 3, 3, 3, 3, 3}); !errors.Is(err, ErrConstantChain) {
		t.Fatalf("constant series: got %v, want ErrConstantChain", err)
	}
	// An odd-length series drops the final point rather than comparing
	// unequal halves.
	if r, err := SplitRHat([]float64{0, 1, 0, 2, 1, 0, 2, 1, 99}); err != nil || math.IsNaN(r) {
		t.Fatalf("odd-length series: r=%v err=%v", r, err)
	}
}

func TestSplitRHatWellMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	r, err := SplitRHat(xs)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.95 || r > 1.05 {
		t.Fatalf("iid split R-hat = %v, want ≈1", r)
	}
}

func TestSplitRHatDetectsDrift(t *testing.T) {
	// A strong linear trend means the halves disagree: R-hat ≫ 1.1.
	rng := rand.New(rand.NewSource(8))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 0.01*float64(i) + 0.1*rng.NormFloat64()
	}
	r, err := SplitRHat(xs)
	if err != nil {
		t.Fatal(err)
	}
	if r < 1.5 {
		t.Fatalf("drifting-chain split R-hat = %v, want ≫ 1.1", r)
	}
}

func TestMaxSplitRHat(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Coordinate 0 well mixed, coordinate 1 drifting, coordinate 2 frozen
	// (skipped): the max must come from the drifting coordinate.
	samples := make([][]float64, 1000)
	for i := range samples {
		samples[i] = []float64{rng.NormFloat64(), 0.01 * float64(i), 5}
	}
	r, err := MaxSplitRHat(samples)
	if err != nil {
		t.Fatal(err)
	}
	if r < 1.5 {
		t.Fatalf("max split R-hat = %v, want the drifting coordinate's ≫ 1.1", r)
	}
	if _, err := MaxSplitRHat(samples[:4]); !errors.Is(err, ErrShortChain) {
		t.Fatalf("short stream: got %v, want ErrShortChain", err)
	}
	frozen := [][]float64{{1, 2}, {1, 2}, {1, 2}, {1, 2}, {1, 2}, {1, 2}, {1, 2}, {1, 2}}
	if _, err := MaxSplitRHat(frozen); !errors.Is(err, ErrConstantChain) {
		t.Fatalf("all-frozen stream: got %v, want ErrConstantChain", err)
	}
}

// The spherical chain on an arc mixes faster (higher ESS per sample)
// than the Cartesian chain — the quantitative form of Fig. 14.
func TestESSOrderingOnArc(t *testing.T) {
	arc := &surrogate.Arc{R: 3, HalfAngle: 2.5}
	start := []float64{3.3 * math.Cos(2.2), 3.3 * math.Sin(2.2)}
	rngC := rand.New(rand.NewSource(3))
	cart, err := CartesianChainContext(context.Background(), arc, start, 2000, nil, rngC)
	if err != nil {
		t.Fatal(err)
	}
	rngS := rand.New(rand.NewSource(3))
	sph, err := SphericalChainContext(context.Background(), arc, start, 2000, nil, rngS)
	if err != nil {
		t.Fatal(err)
	}
	essC, err := EffectiveSampleSize(cart)
	if err != nil {
		t.Fatal(err)
	}
	essS, err := EffectiveSampleSize(sph)
	if err != nil {
		t.Fatal(err)
	}
	if essS <= essC {
		t.Fatalf("spherical ESS %v should exceed Cartesian ESS %v on the arc", essS, essC)
	}
}
