package surrogate

import (
	"context"
	"math"
	"testing"

	"repro/internal/mc"
	"repro/internal/stat"
)

// Compile-time interface checks (kept out of the library to avoid a
// package cycle with mc).
var (
	_ mc.Metric = (*Linear)(nil)
	_ mc.Metric = (*Quadrant)(nil)
	_ mc.Metric = (*Shell)(nil)
	_ mc.Metric = (*Arc)(nil)
	_ mc.Metric = (*SeriesStack)(nil)
)

// mcCheck validates a surrogate's ExactPf by direct Monte Carlo at
// moderate probability levels.
func mcCheck(t *testing.T, m mc.Metric, exact float64, n int, seed int64) {
	t.Helper()
	res, err := mc.ParallelMCContext(context.Background(), m, n, seed, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	se := math.Sqrt(exact * (1 - exact) / float64(n))
	if math.Abs(res.Pf-exact) > 5*se+1e-12 {
		t.Fatalf("MC %v vs exact %v (5se = %v)", res.Pf, exact, 5*se)
	}
}

func TestLinearExactPf(t *testing.T) {
	l := &Linear{W: []float64{1, 2, -1}, B: 2}
	want := stat.NormSF(2 / math.Sqrt(6))
	if math.Abs(l.ExactPf()-want) > 1e-15 {
		t.Fatalf("exact: %v want %v", l.ExactPf(), want)
	}
	mcCheck(t, l, l.ExactPf(), 200000, 1)
	if l.Dim() != 3 {
		t.Fatal("dim")
	}
}

func TestQuadrantExactPf(t *testing.T) {
	q := &Quadrant{M: 2, A: 1}
	want := stat.NormSF(1) * stat.NormSF(1)
	if math.Abs(q.ExactPf()-want) > 1e-15 {
		t.Fatal("exact wrong")
	}
	mcCheck(t, q, q.ExactPf(), 200000, 2)
	// The paper's eq. (18) case: A=0 → Pf = 1/4.
	q0 := &Quadrant{M: 2, A: 0}
	if math.Abs(q0.ExactPf()-0.25) > 1e-15 {
		t.Fatal("quadrant Pf should be 1/4")
	}
	// Margin convention: inside fails.
	if q0.Value([]float64{1, 1}) >= 0 || q0.Value([]float64{-1, 1}) < 0 {
		t.Fatal("quadrant margin convention broken")
	}
}

func TestShellExactPf(t *testing.T) {
	s := &Shell{M: 3, R: 2}
	mcCheck(t, s, s.ExactPf(), 200000, 3)
	if s.Value([]float64{3, 0, 0}) >= 0 || s.Value([]float64{1, 0, 0}) < 0 {
		t.Fatal("shell margin convention broken")
	}
}

func TestArcExactPf(t *testing.T) {
	a := &Arc{R: 1.5, HalfAngle: 1.0}
	mcCheck(t, a, a.ExactPf(), 400000, 4)
	// Inside the wedge and beyond R fails.
	if a.Value([]float64{2, 0}) >= 0 {
		t.Fatal("on-axis far point should fail")
	}
	// Beyond R but outside the wedge passes.
	th := 1.2
	if a.Value([]float64{2 * math.Cos(th), 2 * math.Sin(th)}) < 0 {
		t.Fatal("outside-wedge point should pass")
	}
	// Inside R passes.
	if a.Value([]float64{0.5, 0}) < 0 {
		t.Fatal("near-origin point should pass")
	}
	if a.Dim() != 2 {
		t.Fatal("dim")
	}
}

func TestArcFullCircleMatchesShell(t *testing.T) {
	a := &Arc{R: 2, HalfAngle: math.Pi}
	s := &Shell{M: 2, R: 2}
	if math.Abs(a.ExactPf()-s.ExactPf()) > 1e-14 {
		t.Fatalf("full-circle arc %v vs shell %v", a.ExactPf(), s.ExactPf())
	}
}

func TestSeriesStackExactPf(t *testing.T) {
	s := &SeriesStack{A: 1.5}
	want := 1 - stat.NormCDF(1.5)*stat.NormCDF(1.5)
	if math.Abs(s.ExactPf()-want) > 1e-15 {
		t.Fatal("exact wrong")
	}
	mcCheck(t, s, s.ExactPf(), 200000, 5)
	// Non-convexity: two single-coordinate failures whose midpoint
	// passes.
	p1 := []float64{2, -2}
	p2 := []float64{-2, 2}
	mid := []float64{0, 0}
	if s.Value(p1) >= 0 || s.Value(p2) >= 0 || s.Value(mid) < 0 {
		t.Fatal("series stack should form a non-convex union")
	}
}

func TestQuadrantHigherDim(t *testing.T) {
	q := &Quadrant{M: 4, A: 0.5}
	mcCheck(t, q, q.ExactPf(), 400000, 6)
}
