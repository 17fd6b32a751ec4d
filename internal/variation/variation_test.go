package variation

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/mc"
	"repro/internal/stat"
	"repro/internal/surrogate"
)

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel([]float64{0}, linalg.Identity(2)); err == nil {
		t.Fatal("shape mismatch should error")
	}
	bad := linalg.NewMatrixFrom([][]float64{{1, 0.5}, {0.2, 1}})
	if _, err := NewModel([]float64{0, 0}, bad); err == nil {
		t.Fatal("asymmetric covariance should error")
	}
	indef := linalg.NewMatrixFrom([][]float64{{1, 2}, {2, 1}})
	if _, err := NewModel([]float64{0, 0}, indef); err == nil {
		t.Fatal("indefinite covariance should error")
	}
}

func TestToRawReproducesMoments(t *testing.T) {
	cov := linalg.NewMatrixFrom([][]float64{{4, 1.2, 0}, {1.2, 2, -0.5}, {0, -0.5, 1}})
	mean := []float64{1, -2, 0.5}
	m, err := NewModel(mean, cov)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const n = 150000
	xs := make([][]float64, n)
	z := make([]float64, 3)
	for i := range xs {
		for j := range z {
			z[j] = rng.NormFloat64()
		}
		xs[i] = m.ToRaw(z)
	}
	mu, c, err := stat.Covariance(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mean {
		if math.Abs(mu[i]-mean[i]) > 0.03 {
			t.Fatalf("mean[%d] = %v", i, mu[i])
		}
	}
	if c.MaxAbsDiff(cov) > 0.08 {
		t.Fatalf("raw covariance off: %+v", c)
	}
}

func TestWhitenPreservesFailureProbability(t *testing.T) {
	// A raw-space linear failure with correlated variables has the
	// closed form Pf = Φ(−(b − wᵀμ)/√(wᵀΣw)); the whitened metric must
	// reproduce it through plain MC.
	cov := linalg.NewMatrixFrom([][]float64{{2, 0.8}, {0.8, 1}})
	mean := []float64{0.5, -0.2}
	m, err := NewModel(mean, cov)
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{1, 2}
	b := 4.0
	metric := m.Whiten(func(x []float64) float64 {
		return b - (w[0]*x[0] + w[1]*x[1])
	})
	// wᵀΣw = 2 + 2·0.8·2 + 4 = 9.2; wᵀμ = 0.1.
	exact := stat.NormSF((b - 0.1) / math.Sqrt(9.2))
	res, err := mc.ParallelMCContext(context.Background(), metric, 300000, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	se := math.Sqrt(exact * (1 - exact) / 300000)
	if math.Abs(res.Pf-exact) > 5*se {
		t.Fatalf("whitened MC %v vs exact %v", res.Pf, exact)
	}
}

func TestEquicorrelated(t *testing.T) {
	cov, err := Equicorrelated(4, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if cov.At(0, 0) != 4 || cov.At(0, 1) != 2 {
		t.Fatalf("equicorrelated entries wrong: %v %v", cov.At(0, 0), cov.At(0, 1))
	}
	if _, err := Equicorrelated(3, 1, 1.0); err == nil {
		t.Fatal("rho=1 should error")
	}
	if _, err := Equicorrelated(3, 1, -0.1); err == nil {
		t.Fatal("negative rho should error")
	}
	// Must be a valid model (PSD).
	if _, err := NewModel(make([]float64, 4), cov); err != nil {
		t.Fatal(err)
	}
}

func TestSpatialExponential(t *testing.T) {
	pos := []float64{0, 1, 3}
	cov, err := SpatialExponential(pos, 1.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	want01 := 1.5 * 1.5 * math.Exp(-0.5)
	if math.Abs(cov.At(0, 1)-want01) > 1e-12 {
		t.Fatalf("cov(0,1) = %v want %v", cov.At(0, 1), want01)
	}
	if _, err := SpatialExponential(pos, 1, 0); err == nil {
		t.Fatal("zero length should error")
	}
	if _, err := NewModel(make([]float64, 3), cov); err != nil {
		t.Fatal(err)
	}
}

// End-to-end: a correlated global+local variation model pushed through
// the whitening and the G-S estimator must agree with brute-force MC on
// a correlated region of moderate probability.
func TestWhitenedRegionMCAgreement(t *testing.T) {
	cov, err := Equicorrelated(2, 1, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel([]float64{0, 0}, cov)
	if err != nil {
		t.Fatal(err)
	}
	shell := &surrogate.Shell{M: 2, R: 3}
	metric := m.Whiten(func(x []float64) float64 { return shell.Value(x) })
	res, err := mc.ParallelMCContext(context.Background(), metric, 400000, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Correlation concentrates mass along the diagonal, so the raw-space
	// shell exit probability differs from the isotropic one; just verify
	// it is sane and reproducible against a second estimator: importance
	// sampling with an identity distortion equals plain MC.
	g := stat.StandardMVNormal(2)
	res2, err := mc.ImportanceSampleContext(context.Background(), mc.NewEvaluator(metric, 0), g, 400000, rand.New(rand.NewSource(3)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pf <= 0 || math.Abs(res.Pf-res2.Pf)/res.Pf > 0.1 {
		t.Fatalf("estimators disagree: %v vs %v", res.Pf, res2.Pf)
	}
}
