package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// mulTransposed returns a·bᵀ, the product the Cholesky tests rebuild
// their input from.
func mulTransposed(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			out.Set(i, j, Dot(a.Row(i), b.Row(j)))
		}
	}
	return out
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("At wrong: %+v", m)
	}
	m.Set(0, 0, 5)
	m.Add(0, 0, 1)
	if m.At(0, 0) != 6 {
		t.Fatalf("Set/Add wrong: got %v", m.At(0, 0))
	}
	c := m.Clone()
	c.Set(1, 1, 99)
	if m.At(1, 1) == 99 {
		t.Fatal("Clone aliases original")
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero did not clear")
		}
	}
}

func TestMulVec(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.MulVec([]float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec wrong: %v", got)
	}
}

func TestDotNormScale(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Fatal("Norm2 wrong")
	}
	x := Scale([]float64{1, 2}, 3)
	if x[0] != 3 || x[1] != 6 {
		t.Fatal("Scale wrong")
	}
	y := AXPY([]float64{1, 1}, 2, []float64{3, 4})
	if y[0] != 7 || y[1] != 9 {
		t.Fatal("AXPY wrong")
	}
}

func TestLUSolveKnown(t *testing.T) {
	a := NewMatrixFrom([][]float64{{2, 1, 1}, {1, 3, 2}, {1, 0, 0}})
	b := []float64{4, 5, 6}
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.Solve(b)
	// Verify A x == b.
	ax := a.MulVec(x)
	for i := range b {
		if !almostEq(ax[i], b[i], 1e-12) {
			t.Fatalf("Ax != b: %v vs %v", ax, b)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); err != ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

// Property: for random well-conditioned A and random x, solving A b = (A x)
// recovers x.
func TestLUSolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)) // diagonal dominance => well conditioned
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := a.MulVec(x)
		lu, err := FactorLU(a)
		if err != nil {
			return false
		}
		got := lu.Solve(b)
		for i := range x {
			if !almostEq(got[i], x[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyKnown(t *testing.T) {
	a := NewMatrixFrom([][]float64{{4, 2}, {2, 3}})
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// L Lᵀ must reconstruct A.
	rec := mulTransposed(c.L, c.L)
	if rec.MaxAbsDiff(a) > 1e-12 {
		t.Fatalf("LLᵀ != A: %+v", rec)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := FactorCholesky(a); err != ErrNotPositiveDefinite {
		t.Fatalf("want ErrNotPositiveDefinite, got %v", err)
	}
}

func TestCholeskySolve(t *testing.T) {
	a := NewMatrixFrom([][]float64{{6, 2, 1}, {2, 5, 2}, {1, 2, 4}})
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3}
	x := c.Solve(b)
	ax := a.MulVec(x)
	for i := range b {
		if !almostEq(ax[i], b[i], 1e-12) {
			t.Fatalf("Cholesky solve wrong: %v", ax)
		}
	}
}

func TestCholeskyRegularized(t *testing.T) {
	// Rank-deficient covariance (as from too few Gibbs samples).
	a := NewMatrixFrom([][]float64{{1, 1}, {1, 1}})
	c, added, err := FactorCholeskyRegularized(a, 1e-9, 60)
	if err != nil {
		t.Fatal(err)
	}
	if added <= 0 {
		t.Fatal("expected jitter to be added")
	}
	if c == nil {
		t.Fatal("nil factor")
	}
}

// Property: LLᵀ reconstructs random SPD matrices built as GᵀG + I.
func TestCholeskyReconstructProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		// gt holds Gᵀ, so gt·gtᵀ is GᵀG.
		gt := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				gt.Set(j, i, rng.NormFloat64())
			}
		}
		a := mulTransposed(gt, gt)
		for i := 0; i < n; i++ {
			a.Add(i, i, 1)
		}
		c, err := FactorCholesky(a)
		if err != nil {
			return false
		}
		return mulTransposed(c.L, c.L).MaxAbsDiff(a) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyLogDet(t *testing.T) {
	a := NewMatrixFrom([][]float64{{4, 0}, {0, 9}})
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(c.LogDet(), math.Log(36), 1e-12) {
		t.Fatalf("LogDet wrong: %v", c.LogDet())
	}
}

func TestCholeskyMulVec(t *testing.T) {
	a := NewMatrixFrom([][]float64{{4, 2}, {2, 3}})
	c, _ := FactorCholesky(a)
	z := []float64{1, -1}
	lz := c.MulVec(z)
	want := c.L.MulVec(z)
	for i := range want {
		if !almostEq(lz[i], want[i], 1e-14) {
			t.Fatalf("MulVec mismatch: %v vs %v", lz, want)
		}
	}
}

func TestLeastSquaresExactRecovery(t *testing.T) {
	// Overdetermined consistent system recovers the generating coefficients.
	rng := rand.New(rand.NewSource(7))
	n, p := 60, 4
	truth := []float64{1.5, -2, 0.25, 3}
	a := NewMatrix(n, p)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		b[i] = Dot(a.Row(i), truth)
	}
	x, err := RidgeLeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := range truth {
		if !almostEq(x[j], truth[j], 1e-8) {
			t.Fatalf("coef %d: got %v want %v", j, x[j], truth[j])
		}
	}
}

func TestRidgeShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n, p := 40, 3
	a := NewMatrix(n, p)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		b[i] = rng.NormFloat64()
	}
	x0, err := RidgeLeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := RidgeLeastSquares(a, b, 1e3)
	if err != nil {
		t.Fatal(err)
	}
	if Norm2(x1) >= Norm2(x0) {
		t.Fatalf("ridge did not shrink: %v vs %v", Norm2(x1), Norm2(x0))
	}
}
