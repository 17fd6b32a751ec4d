package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRegIncGammaPKnown(t *testing.T) {
	// P(1, x) = 1 − e^{−x} (exponential CDF).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10, 30} {
		want := 1 - math.Exp(-x)
		got := RegIncGammaP(1, x)
		if math.Abs(got-want) > 1e-13 {
			t.Fatalf("P(1,%v): got %v want %v", x, got, want)
		}
	}
	// P(1/2, x) = erf(√x).
	for _, x := range []float64{0.01, 0.25, 1, 4, 9} {
		want := math.Erf(math.Sqrt(x))
		got := RegIncGammaP(0.5, x)
		if math.Abs(got-want) > 1e-13 {
			t.Fatalf("P(0.5,%v): got %v want %v", x, got, want)
		}
	}
}

func TestRegIncGammaEdges(t *testing.T) {
	if RegIncGammaP(2, 0) != 0 {
		t.Fatal("P(a,0) != 0")
	}
	if RegIncGammaQ(2, 0) != 1 {
		t.Fatal("Q(a,0) != 1")
	}
	if !math.IsNaN(RegIncGammaP(-1, 1)) || !math.IsNaN(RegIncGammaP(1, -1)) {
		t.Fatal("domain errors should be NaN")
	}
	// Large x: P → 1.
	if v := RegIncGammaP(3, 1e4); math.Abs(v-1) > 1e-14 {
		t.Fatalf("P(3,1e4) = %v", v)
	}
}

// Property: P + Q == 1 across the switch between series and continued
// fraction.
func TestRegIncGammaComplement(t *testing.T) {
	f := func(ai, xi uint8) bool {
		a := 0.1 + float64(ai%50)*0.37
		x := float64(xi%60) * 0.53
		p, q := RegIncGammaP(a, x), RegIncGammaQ(a, x)
		return math.Abs(p+q-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: P(a, ·) is nondecreasing in x.
func TestRegIncGammaMonotone(t *testing.T) {
	for _, a := range []float64{0.3, 0.5, 1, 2.5, 3, 10} {
		prev := -1.0
		for x := 0.0; x < 40; x += 0.25 {
			v := RegIncGammaP(a, x)
			if v < prev-1e-14 {
				t.Fatalf("P(%v,·) not monotone at x=%v: %v < %v", a, x, v, prev)
			}
			prev = v
		}
	}
}

func TestInvRegIncGammaRoundTrip(t *testing.T) {
	for _, a := range []float64{0.5, 1, 2, 3, 5, 17.5} {
		for _, p := range []float64{1e-10, 1e-6, 0.01, 0.3, 0.5, 0.9, 0.999, 1 - 1e-9} {
			x := InvRegIncGammaP(a, p)
			back := RegIncGammaP(a, x)
			if math.Abs(back-p) > 1e-9*math.Max(1, p) && math.Abs(back-p) > 1e-12 {
				t.Fatalf("a=%v p=%v: x=%v back=%v", a, p, x, back)
			}
		}
	}
	if InvRegIncGammaP(2, 0) != 0 {
		t.Fatal("quantile at 0")
	}
	if !math.IsInf(InvRegIncGammaP(2, 1), 1) {
		t.Fatal("quantile at 1")
	}
}

func TestNormPDFCDF(t *testing.T) {
	if math.Abs(NormPDF(0)-invSqrt2Pi) > 1e-16 {
		t.Fatal("φ(0) wrong")
	}
	if math.Abs(NormCDF(0)-0.5) > 1e-16 {
		t.Fatal("Φ(0) wrong")
	}
	// Known values: Φ(1.96) ≈ 0.9750021048517795.
	if math.Abs(NormCDF(1.96)-0.9750021048517795) > 1e-12 {
		t.Fatalf("Φ(1.96) = %v", NormCDF(1.96))
	}
	// Tail accuracy: Φ(−8) = 6.22096057e−16.
	if v := NormCDF(-8); math.Abs(v-6.220960574271786e-16)/6.22e-16 > 1e-9 {
		t.Fatalf("Φ(−8) = %v", v)
	}
	// Symmetry.
	for _, x := range []float64{0.1, 1, 2.5, 5} {
		if math.Abs(NormCDF(x)+NormCDF(-x)-1) > 1e-15 {
			t.Fatalf("Φ(x)+Φ(−x) != 1 at %v", x)
		}
		if math.Abs(NormSF(x)-NormCDF(-x)) > 1e-18 {
			t.Fatalf("SF mismatch at %v", x)
		}
	}
}

func TestNormQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-15, 1e-10, 1e-6, 0.001, 0.025, 0.5, 0.975, 0.999999, 1 - 1e-12} {
		x := NormQuantile(p)
		back := NormCDF(x)
		if math.Abs(back-p) > 1e-12*math.Max(p, 1e-3) && math.Abs(back-p) > 1e-15 {
			t.Fatalf("p=%v x=%v back=%v", p, x, back)
		}
	}
	if NormQuantile(0.5) != 0 {
		t.Fatalf("median not 0: %v", NormQuantile(0.5))
	}
	if !math.IsInf(NormQuantile(0), -1) || !math.IsInf(NormQuantile(1), 1) {
		t.Fatal("quantile edges wrong")
	}
	if !math.IsNaN(NormQuantile(-0.1)) || !math.IsNaN(NormQuantile(1.1)) {
		t.Fatal("out-of-range p should be NaN")
	}
}

// Property: quantile is the inverse of the CDF over a dense dyadic grid.
func TestNormQuantileInverseProperty(t *testing.T) {
	f := func(u uint16) bool {
		p := (float64(u) + 0.5) / 65536.0
		x := NormQuantile(p)
		return math.Abs(NormCDF(x)-p) < 1e-13
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestScalarNormal(t *testing.T) {
	n := Normal{Mu: 3, Sigma: 2}
	if math.Abs(n.CDF(3)-0.5) > 1e-15 {
		t.Fatal("shifted CDF wrong")
	}
	if math.Abs(n.Quantile(n.CDF(5.5))-5.5) > 1e-10 {
		t.Fatal("shifted quantile roundtrip wrong")
	}
	if math.Abs(n.PDF(3)-NormPDF(0)/2) > 1e-16 {
		t.Fatal("shifted PDF wrong")
	}
}

func TestChiAgainstNormal(t *testing.T) {
	// Chi(1) is a half-Normal: CDF(r) = 2Φ(r) − 1.
	c := Chi{K: 1}
	for _, r := range []float64{0.1, 0.5, 1, 2, 3.5} {
		want := 2*NormCDF(r) - 1
		if math.Abs(c.CDF(r)-want) > 1e-12 {
			t.Fatalf("Chi(1) CDF(%v): got %v want %v", r, c.CDF(r), want)
		}
	}
}

func TestChiKnownValues(t *testing.T) {
	// Chi(2) is Rayleigh(1): CDF(r) = 1 − e^{−r²/2}, mean √(π/2).
	c := Chi{K: 2}
	for _, r := range []float64{0.2, 1, 2, 4} {
		want := 1 - math.Exp(-0.5*r*r)
		if math.Abs(c.CDF(r)-want) > 1e-13 {
			t.Fatalf("Chi(2) CDF(%v): got %v want %v", r, c.CDF(r), want)
		}
	}
	if math.Abs(c.Mean()-math.Sqrt(math.Pi/2)) > 1e-13 {
		t.Fatalf("Chi(2) mean: %v", c.Mean())
	}
	if math.Abs(c.Var()-(2-math.Pi/2)) > 1e-13 {
		t.Fatalf("Chi(2) var: %v", c.Var())
	}
}

func TestChiPDFIntegratesToCDF(t *testing.T) {
	// Trapezoid integral of the PDF matches the CDF for several K.
	for _, k := range []int{1, 2, 3, 6, 12} {
		c := Chi{K: k}
		const steps = 40000
		const h = 4.0 / steps
		sum := 0.0
		prev := c.PDF(0)
		for i := 1; i <= steps; i++ {
			cur := c.PDF(float64(i) * h)
			sum += 0.5 * (prev + cur) * h
			prev = cur
		}
		if math.Abs(sum-c.CDF(4)) > 1e-6 {
			t.Fatalf("K=%d: ∫pdf=%v cdf=%v", k, sum, c.CDF(4))
		}
	}
}

func TestChiQuantileRoundTrip(t *testing.T) {
	for _, k := range []int{1, 2, 3, 6, 30} {
		c := Chi{K: k}
		for _, p := range []float64{1e-8, 0.01, 0.5, 0.99, 1 - 1e-8} {
			r := c.Quantile(p)
			if math.Abs(c.CDF(r)-p) > 1e-9 {
				t.Fatalf("K=%d p=%v: r=%v cdf=%v", k, p, r, c.CDF(r))
			}
		}
		if c.Quantile(0) != 0 || !math.IsInf(c.Quantile(1), 1) {
			t.Fatalf("K=%d quantile edges wrong", k)
		}
	}
}

func TestChiSFComplement(t *testing.T) {
	c := Chi{K: 6}
	for _, r := range []float64{0.5, 2, 5, 8} {
		if math.Abs(c.CDF(r)+c.SF(r)-1) > 1e-12 {
			t.Fatalf("CDF+SF != 1 at %v", r)
		}
	}
	// Deep tail must stay positive and tiny.
	if sf := c.SF(12); sf <= 0 || sf > 1e-20 {
		t.Fatalf("deep-tail SF suspicious: %v", sf)
	}
}
