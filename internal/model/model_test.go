package model

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/mc"
	"repro/internal/surrogate"
)

func TestFitLinearExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	truth := &Linear{C0: 2.5, W: []float64{1, -2, 0.5}}
	xs := make([][]float64, 50)
	ys := make([]float64, 50)
	for i := range xs {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		xs[i] = x
		ys[i] = truth.Eval(x)
	}
	got, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.C0-truth.C0) > 1e-6 {
		t.Fatalf("C0: %v", got.C0)
	}
	for j := range truth.W {
		if math.Abs(got.W[j]-truth.W[j]) > 1e-6 {
			t.Fatalf("W[%d]: %v", j, got.W[j])
		}
	}
}

func TestFitLinearBadInput(t *testing.T) {
	if _, err := FitLinear(nil, nil); err == nil {
		t.Fatal("expected error")
	}
	if _, err := FitLinear([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestLinearMinNormZero(t *testing.T) {
	l := &Linear{C0: -4, W: []float64{3, 4}}
	x, err := l.MinNormZero()
	if err != nil {
		t.Fatal(err)
	}
	// Boundary at 3x+4y=4; min-norm point at distance 4/5 along (3,4)/5.
	if math.Abs(l.Eval(x)) > 1e-12 {
		t.Fatalf("not on boundary: %v", l.Eval(x))
	}
	if math.Abs(linalg.Norm2(x)-0.8) > 1e-12 {
		t.Fatalf("norm: %v", linalg.Norm2(x))
	}
	if _, err := (&Linear{C0: 1, W: []float64{0, 0}}).MinNormZero(); err == nil {
		t.Fatal("expected zero-gradient error")
	}
}

func TestFitQuadraticExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := linalg.NewMatrixFrom([][]float64{{1, 0.5}, {0.5, -2}})
	truth := &Quadratic{C0: 1, W: []float64{-1, 2}, A: a}
	n := 60
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		xs[i] = x
		ys[i] = truth.Eval(x)
	}
	got, err := FitQuadratic(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		if math.Abs(got.Eval(x)-truth.Eval(x)) > 1e-5 {
			t.Fatalf("prediction mismatch at %v", x)
		}
	}
	if got.A.MaxAbsDiff(a) > 1e-5 {
		t.Fatalf("A mismatch: %+v", got.A)
	}
}

func TestFitQuadraticNeedsEnoughPoints(t *testing.T) {
	xs := [][]float64{{1, 2}, {3, 4}}
	ys := []float64{1, 2}
	if _, err := FitQuadratic(xs, ys); err == nil {
		t.Fatal("expected too-few-points error")
	}
}

func TestQuadraticGradFiniteDifference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(4)
		a := linalg.NewMatrix(m, m)
		for i := 0; i < m; i++ {
			for j := i; j < m; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		w := make([]float64, m)
		x := make([]float64, m)
		for i := range w {
			w[i] = rng.NormFloat64()
			x[i] = rng.NormFloat64()
		}
		q := &Quadratic{C0: rng.NormFloat64(), W: w, A: a}
		g := q.Grad(x)
		const h = 1e-6
		for j := 0; j < m; j++ {
			xp := linalg.CopyVec(x)
			xm := linalg.CopyVec(x)
			xp[j] += h
			xm[j] -= h
			num := (q.Eval(xp) - q.Eval(xm)) / (2 * h)
			if math.Abs(num-g[j]) > 1e-5*(1+math.Abs(num)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMinNormZeroSQPSphere(t *testing.T) {
	// q(x) = ‖x‖² − 9: boundary is the radius-3 sphere; every point on it
	// is min-norm.
	a := linalg.Identity(3)
	q := &Quadratic{C0: -9, W: []float64{0, 0, 0}, A: a}
	x, err := MinNormZeroSQP(q, 3, 80)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(linalg.Norm2(x)-3) > 1e-6 {
		t.Fatalf("sphere min-norm radius: %v", linalg.Norm2(x))
	}
}

func TestMinNormZeroSQPShiftedPlane(t *testing.T) {
	// Quadratic that is actually affine: must reproduce the linear
	// closed form.
	q := &Quadratic{C0: -4, W: []float64{3, 4}, A: linalg.NewMatrix(2, 2)}
	x, err := MinNormZeroSQP(q, 2, 60)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(linalg.Norm2(x)-0.8) > 1e-9 {
		t.Fatalf("min-norm: %v (want 0.8)", linalg.Norm2(x))
	}
}

func TestFindFailurePointLinearMetric(t *testing.T) {
	// Failure when 2x₁ + x₂ > 5: min-norm failure point at distance
	// 5/√5 = √5 along (2,1)/√5.
	lin := &surrogate.Linear{W: []float64{2, 1}, B: 5}
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(3))
	x, err := FindFailurePointContext(context.Background(), counter, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if lin.Value(x) >= 0 {
		t.Fatalf("returned point does not fail: %v", x)
	}
	if math.Abs(linalg.Norm2(x)-math.Sqrt(5)) > 0.1 {
		t.Fatalf("distance %v, want √5", linalg.Norm2(x))
	}
	if counter.Count() == 0 {
		t.Fatal("simulations were not counted")
	}
}

func TestFindFailurePointQuadraticOnShell(t *testing.T) {
	sh := &surrogate.Shell{M: 3, R: 4}
	counter := mc.NewCounter(sh)
	rng := rand.New(rand.NewSource(4))
	x, err := FindFailurePointContext(context.Background(), counter, &StartOptions{UseQuadratic: true, TrainScale: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Value(x) >= 0 {
		t.Fatalf("point does not fail: %v", x)
	}
	if math.Abs(linalg.Norm2(x)-4) > 0.2 {
		t.Fatalf("shell failure point radius %v, want ≈4", linalg.Norm2(x))
	}
}

func TestFindFailurePointNoFailure(t *testing.T) {
	// A metric that never fails within the search radius.
	never := mc.MetricFunc{M: 2, F: func(x []float64) float64 { return 1 }}
	rng := rand.New(rand.NewSource(5))
	if _, err := FindFailurePointContext(context.Background(), mc.NewCounter(never), &StartOptions{MaxRadius: 6}, rng); err == nil {
		t.Fatal("expected failure-not-found error")
	}
}

func TestRefineAlongRayBisects(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 3}
	// Start from a deliberately bad guess in the right direction.
	x, err := RefineAlongRay(lin, []float64{8, 0}, 12, 20)
	if err != nil {
		t.Fatal(err)
	}
	if lin.Value(x) >= 0 {
		t.Fatal("refined point passes")
	}
	if math.Abs(x[0]-3) > 0.01 {
		t.Fatalf("boundary at %v, want 3", x[0])
	}
	if _, err := RefineAlongRay(lin, []float64{0, 0}, 12, 10); err == nil {
		t.Fatal("expected error for zero start")
	}
}
