package gibbs

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

func TestCartesianChainStaysInFailureRegion(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 4}
	rng := rand.New(rand.NewSource(1))
	samples, err := CartesianChainContext(context.Background(), lin, []float64{3, 3}, 200, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 200 {
		t.Fatalf("got %d samples", len(samples))
	}
	for i, s := range samples {
		if lin.Value(s) >= 0 {
			t.Fatalf("sample %d outside failure region: %v", i, s)
		}
	}
}

func TestCartesianChainRejectsPassingStart(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 4}
	rng := rand.New(rand.NewSource(2))
	if _, err := CartesianChainContext(context.Background(), lin, []float64{0, 0}, 10, nil, rng); err != ErrStartNotFailing {
		t.Fatalf("want ErrStartNotFailing, got %v", err)
	}
}

func TestCartesianChainBadArgs(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 4}
	rng := rand.New(rand.NewSource(3))
	if _, err := CartesianChainContext(context.Background(), lin, []float64{5}, 10, nil, rng); err == nil {
		t.Fatal("expected dimension error")
	}
	if _, err := CartesianChainContext(context.Background(), lin, []float64{5, 0}, 0, nil, rng); err == nil {
		t.Fatal("expected bad-k error")
	}
}

// Statistical correctness: for the half-space failure region the Gibbs
// chain must converge to g^OPT(x) = I(x)·f(x)/P_f. Projected on the
// direction w/‖w‖, g^OPT is a standard Normal truncated to (β, ∞) with
// β = B/‖w‖, whose mean is φ(β)/Φ(−β). Orthogonal directions stay
// standard Normal with mean 0.
func TestCartesianChainMatchesOptimalPDF(t *testing.T) {
	b := 2.0
	lin := &surrogate.Linear{W: []float64{1, 0}, B: b} // fail: x₁ > 2
	rng := rand.New(rand.NewSource(4))
	samples, err := CartesianChainContext(context.Background(), lin, []float64{2.5, 0}, 60000, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 stat.Running
	for _, s := range samples {
		m0.Push(s[0])
		m1.Push(s[1])
	}
	wantMean := stat.NormPDF(b) / stat.NormSF(b) // ≈ 2.373 for b=2
	if math.Abs(m0.Mean()-wantMean) > 0.02 {
		t.Fatalf("truncated mean: got %v want %v", m0.Mean(), wantMean)
	}
	if math.Abs(m1.Mean()) > 0.03 {
		t.Fatalf("orthogonal mean should be ≈0: %v", m1.Mean())
	}
	// Orthogonal variance stays ≈1.
	if math.Abs(m1.Var()-1) > 0.05 {
		t.Fatalf("orthogonal variance: %v", m1.Var())
	}
}

func TestSphericalCoordsRoundTrip(t *testing.T) {
	x := []float64{1.5, -2, 0.5}
	r, alpha, err := SphericalCoords(x, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(linalg.Norm2(alpha)-1e-2) > 1e-15 {
		t.Fatalf("‖α‖ should equal ε: %v", linalg.Norm2(alpha))
	}
	back, err := CartesianFromSpherical(r, alpha)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(back[i]-x[i]) > 1e-12 {
			t.Fatalf("roundtrip mismatch: %v vs %v", back, x)
		}
	}
	if _, _, err := SphericalCoords([]float64{0, 0}, 1e-2); err == nil {
		t.Fatal("expected error at origin")
	}
	if _, err := CartesianFromSpherical(1, []float64{0, 0}); err == nil {
		t.Fatal("expected error for zero orientation")
	}
}

func TestSphericalChainStaysInFailureRegion(t *testing.T) {
	sh := &surrogate.Shell{M: 3, R: 3}
	rng := rand.New(rand.NewSource(5))
	start := []float64{3.2, 0.1, 0}
	samples, err := SphericalChainContext(context.Background(), sh, start, 300, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range samples {
		if sh.Value(s) >= 0 {
			t.Fatalf("sample %d outside failure region: %v", i, s)
		}
	}
}

// On the shell region the spherical chain's radius conditional is exactly
// a truncated Chi; the orientation must become uniform. Check the radial
// mean and the symmetry of each coordinate.
func TestSphericalChainShellDistribution(t *testing.T) {
	const m = 3
	R := 3.0
	sh := &surrogate.Shell{M: m, R: R}
	rng := rand.New(rand.NewSource(6))
	samples, err := SphericalChainContext(context.Background(), sh, []float64{R + 0.2, 0.05, -0.02}, 40000, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	chi := stat.Chi{K: m}
	// Truncated Chi mean on [R, ∞) by numeric integration.
	const h = 1e-3
	num, den := 0.0, 0.0
	for r := R; r < R+6; r += h {
		p0, p1 := chi.PDF(r), chi.PDF(r+h)
		num += 0.5 * (r*p0 + (r+h)*p1) * h
		den += 0.5 * (p0 + p1) * h
	}
	want := num / den
	var rad stat.Running
	var coord [m]stat.Running
	for _, s := range samples {
		rad.Push(linalg.Norm2(s))
		for j := 0; j < m; j++ {
			coord[j].Push(s[j])
		}
	}
	if math.Abs(rad.Mean()-want) > 0.03 {
		t.Fatalf("radial mean: got %v want %v", rad.Mean(), want)
	}
	for j := 0; j < m; j++ {
		if math.Abs(coord[j].Mean()) > 0.12 {
			t.Fatalf("coordinate %d mean should be ≈0 (uniform orientation): %v", j, coord[j].Mean())
		}
	}
}

func TestSphericalChainRejectsPassingStart(t *testing.T) {
	sh := &surrogate.Shell{M: 2, R: 3}
	rng := rand.New(rand.NewSource(7))
	if _, err := SphericalChainContext(context.Background(), sh, []float64{0.1, 0}, 10, nil, rng); err != ErrStartNotFailing {
		t.Fatalf("want ErrStartNotFailing, got %v", err)
	}
}

// The arc traversal property (paper Fig. 14): on a wide-arc region, the
// spherical chain must reach angular positions far from its start.
func TestSphericalChainTraversesArc(t *testing.T) {
	arc := &surrogate.Arc{R: 3, HalfAngle: 2.5}
	rng := rand.New(rand.NewSource(8))
	start := []float64{3.3 * math.Cos(2.2), 3.3 * math.Sin(2.2)} // near one arc end
	samples, err := SphericalChainContext(context.Background(), arc, start, 3000, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	minTheta, maxTheta := math.Inf(1), math.Inf(-1)
	for _, s := range samples {
		th := math.Atan2(s[1], s[0])
		minTheta = math.Min(minTheta, th)
		maxTheta = math.Max(maxTheta, th)
	}
	if maxTheta-minTheta < 3.0 {
		t.Fatalf("spherical chain failed to traverse the arc: span %v", maxTheta-minTheta)
	}
}

// By contrast the Cartesian chain on the same arc explores a much smaller
// angular span from the same start within the same sample budget — the
// §V-B mechanism. (It is not strictly pinned, so just compare spans.)
func TestCartesianVsSphericalArcCoverage(t *testing.T) {
	arc := &surrogate.Arc{R: 3, HalfAngle: 2.5}
	start := []float64{3.3 * math.Cos(2.2), 3.3 * math.Sin(2.2)}
	span := func(samples [][]float64) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range samples {
			th := math.Atan2(s[1], s[0])
			lo, hi = math.Min(lo, th), math.Max(hi, th)
		}
		return hi - lo
	}
	rngC := rand.New(rand.NewSource(9))
	cart, err := CartesianChainContext(context.Background(), arc, start, 400, nil, rngC)
	if err != nil {
		t.Fatal(err)
	}
	rngS := rand.New(rand.NewSource(9))
	sph, err := SphericalChainContext(context.Background(), arc, start, 400, nil, rngS)
	if err != nil {
		t.Fatal(err)
	}
	if span(sph) <= span(cart) {
		t.Fatalf("spherical span %v should exceed Cartesian span %v", span(sph), span(cart))
	}
}

func TestTwoStageOnLinearMetric(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1, 1}, B: 7} // Pf = Φ(−7/√3) ≈ 2.66e-5
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(10))
	res, err := TwoStageContext(context.Background(), counter, TwoStageOptions{Coord: Cartesian, K: 400, N: 4000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	exact := lin.ExactPf()
	if math.Abs(res.Pf-exact)/exact > 0.15 {
		t.Fatalf("G-C estimate %v, exact %v", res.Pf, exact)
	}
	if res.Stage1Sims <= 0 || res.Stage2Sims != 4000 {
		t.Fatalf("stage accounting wrong: %d / %d", res.Stage1Sims, res.Stage2Sims)
	}
	if res.N != 4000 {
		t.Fatalf("result N = %d", res.N)
	}
}

func TestTwoStageSphericalOnLinearMetric(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{2, -1}, B: 9} // Pf = Φ(−9/√5) ≈ 2.86e-5
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(11))
	res, err := TwoStageContext(context.Background(), counter, TwoStageOptions{Coord: Spherical, K: 400, N: 4000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	exact := lin.ExactPf()
	if math.Abs(res.Pf-exact)/exact > 0.15 {
		t.Fatalf("G-S estimate %v, exact %v", res.Pf, exact)
	}
}

// The headline §V-B behavior on the analytic arc: G-S recovers the true
// probability; G-C (same budget, same start) underestimates it. Both run
// the paper's single chain: two chains from the same start leave G-C
// less trapped (mean Pf/exact 0.60 with one chain and 0.72 with two over
// seeds 200–229), which three seeds no longer resolve.
func TestArcRegionGSBeatsGC(t *testing.T) {
	arc := &surrogate.Arc{R: 4.2, HalfAngle: 2.8}
	exact := arc.ExactPf()
	start := []float64{4.4 * math.Cos(2.6), 4.4 * math.Sin(2.6)}

	run := func(coord Coord, seed int64) float64 {
		counter := mc.NewCounter(arc)
		rng := rand.New(rand.NewSource(seed))
		res, err := TwoStageContext(context.Background(), counter, TwoStageOptions{
			Coord: coord, K: 500, N: 6000, StartPoint: start,
			Chain: &Options{Chains: 1},
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		return res.Pf
	}
	// Average a few seeds to smooth estimator noise.
	var gs, gc float64
	const nSeeds = 3
	for s := int64(0); s < nSeeds; s++ {
		gs += run(Spherical, 100+s) / nSeeds
		gc += run(Cartesian, 200+s) / nSeeds
	}
	if math.Abs(gs-exact)/exact > 0.25 {
		t.Fatalf("G-S should match exact: got %v want %v", gs, exact)
	}
	if gc > 0.8*exact {
		t.Fatalf("G-C should underestimate on the arc: got %v vs exact %v", gc, exact)
	}
}

func TestTwoStageUntilReachesTarget(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 6}
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(12))
	res, err := TwoStageContext(context.Background(), counter, TwoStageOptions{Coord: Spherical, K: 300, Target: 0.05, N: 200000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.RelErr99 > 0.05 {
		t.Fatalf("did not reach 5%% target: %v after %d", res.RelErr99, res.N)
	}
	exact := lin.ExactPf()
	if math.Abs(res.Pf-exact)/exact > 0.15 {
		t.Fatalf("estimate %v, exact %v", res.Pf, exact)
	}
}

func TestTwoStageValidation(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 6}
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(13))
	if _, err := TwoStageContext(context.Background(), counter, TwoStageOptions{K: 0, N: 10}, rng); err == nil {
		t.Fatal("expected K validation error")
	}
	if _, err := TwoStageContext(context.Background(), counter, TwoStageOptions{K: 10, N: 0}, rng); err == nil {
		t.Fatal("expected N validation error")
	}
	if _, err := TwoStageContext(context.Background(), counter, TwoStageOptions{K: 10, N: 10, Coord: Coord(9)}, rng); err == nil {
		t.Fatal("expected coord validation error")
	}
}

func TestFitDistortionTooFewSamples(t *testing.T) {
	if _, err := FitDistortion([][]float64{{1, 2}}); err == nil {
		t.Fatal("expected error for single sample")
	}
}

func TestCoordString(t *testing.T) {
	if Cartesian.String() != "G-C" || Spherical.String() != "G-S" {
		t.Fatal("Coord names wrong")
	}
	if Coord(7).String() == "" {
		t.Fatal("unknown coord should still print")
	}
}
