// Package model implements the response-surface machinery behind the
// paper's starting-point selection (Algorithm 4, after Zhang et al. [18])
// and the minimum-norm importance-sampling baseline: linear and quadratic
// performance models fitted from a handful of simulations, minimum-norm
// points on their zero-level sets (paper eq. 29), and simulation-verified
// refinement of the resulting failure point.
package model

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/mc"
)

// finiteVec reports whether every coordinate is a normal float.
func finiteVec(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// ErrNoFailureFound is returned when a search cannot locate any failing
// sample.
var ErrNoFailureFound = errors.New("model: no failure point found")

// Linear is the affine performance model y ≈ C0 + Wᵀx.
type Linear struct {
	C0 float64
	W  []float64
}

// Eval returns the model prediction at x.
func (l *Linear) Eval(x []float64) float64 { return l.C0 + linalg.Dot(l.W, x) }

// Grad returns the gradient (a copy of W).
func (l *Linear) Grad(x []float64) []float64 { return linalg.CopyVec(l.W) }

// FitLinear fits the model by least squares from sample points xs and
// responses ys.
func FitLinear(xs [][]float64, ys []float64) (*Linear, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, errors.New("model: bad training set")
	}
	m := len(xs[0])
	a := linalg.NewMatrix(len(xs), m+1)
	for i, x := range xs {
		a.Set(i, 0, 1)
		for j, v := range x {
			a.Set(i, j+1, v)
		}
	}
	c, err := linalg.RidgeLeastSquares(a, ys, 1e-10)
	if err != nil {
		return nil, fmt.Errorf("model: linear fit: %w", err)
	}
	return &Linear{C0: c[0], W: c[1:]}, nil
}

// MinNormZero returns the minimum-norm point on the hyperplane
// {x : C0 + Wᵀx = 0}: x* = −C0·W/‖W‖².
func (l *Linear) MinNormZero() ([]float64, error) {
	n2 := linalg.Dot(l.W, l.W)
	//reprolint:ignore floateq dot(W,W) is exactly 0 only for an all-zero gradient; degenerate-model guard
	if n2 == 0 {
		return nil, errors.New("model: linear model has zero gradient")
	}
	x := linalg.CopyVec(l.W)
	return linalg.Scale(x, -l.C0/n2), nil
}

// Quadratic is the full second-order model y ≈ C0 + Wᵀx + xᵀAx with A
// symmetric.
type Quadratic struct {
	C0 float64
	W  []float64
	A  *linalg.Matrix
}

// Eval returns the model prediction at x.
func (q *Quadratic) Eval(x []float64) float64 {
	v := q.C0 + linalg.Dot(q.W, x)
	ax := q.A.MulVec(x)
	return v + linalg.Dot(x, ax)
}

// Grad returns ∇y = W + 2Ax.
func (q *Quadratic) Grad(x []float64) []float64 {
	g := q.A.MulVec(x)
	linalg.Scale(g, 2)
	return linalg.AXPY(g, 1, q.W)
}

// FitQuadratic fits the model by least squares. The training set must
// contain at least 1 + M + M(M+1)/2 points.
func FitQuadratic(xs [][]float64, ys []float64) (*Quadratic, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, errors.New("model: bad training set")
	}
	m := len(xs[0])
	ncoef := 1 + m + m*(m+1)/2
	if len(xs) < ncoef {
		return nil, fmt.Errorf("model: quadratic fit needs ≥ %d points, have %d", ncoef, len(xs))
	}
	a := linalg.NewMatrix(len(xs), ncoef)
	for i, x := range xs {
		a.Set(i, 0, 1)
		col := 1
		for j := 0; j < m; j++ {
			a.Set(i, col, x[j])
			col++
		}
		for j := 0; j < m; j++ {
			for k := j; k < m; k++ {
				v := x[j] * x[k]
				if j != k {
					v *= 2 // symmetric off-diagonal appears twice
				}
				a.Set(i, col, v)
				col++
			}
		}
	}
	c, err := linalg.RidgeLeastSquares(a, ys, 1e-9)
	if err != nil {
		return nil, fmt.Errorf("model: quadratic fit: %w", err)
	}
	q := &Quadratic{C0: c[0], W: make([]float64, m), A: linalg.NewMatrix(m, m)}
	copy(q.W, c[1:1+m])
	col := 1 + m
	for j := 0; j < m; j++ {
		for k := j; k < m; k++ {
			q.A.Set(j, k, c[col])
			q.A.Set(k, j, c[col])
			col++
		}
	}
	return q, nil
}

// Surface is a fitted performance model with gradients — what the
// minimum-norm solver needs.
type Surface interface {
	Eval(x []float64) float64
	Grad(x []float64) []float64
}

// MinNormZeroSQP finds an approximate minimum-norm point on the zero-level
// set of a smooth surface by sequential linearization (paper eq. 29 with a
// quadratic model, solved as in [18]): at each step the constraint is
// linearized at x_k and the exact min-norm point of the linearized
// constraint becomes x_{k+1}, with damping for stability.
func MinNormZeroSQP(s Surface, dim, iters int) ([]float64, error) {
	x := make([]float64, dim)
	// Start from the linear-part solution when available, otherwise a
	// small perturbation to escape the saddle at the origin.
	g0 := s.Grad(x)
	//reprolint:ignore floateq Norm2 is exactly 0 only for the all-zero gradient at the origin saddle; exact sentinel
	if linalg.Norm2(g0) == 0 {
		for i := range x {
			x[i] = 1e-3
		}
	} else {
		v := s.Eval(x)
		n2 := linalg.Dot(g0, g0)
		x = linalg.Scale(linalg.CopyVec(g0), -v/n2)
	}
	for k := 0; k < iters; k++ {
		v := s.Eval(x)
		g := s.Grad(x)
		n2 := linalg.Dot(g, g)
		if n2 < 1e-24 {
			return nil, errors.New("model: vanishing gradient in min-norm iteration")
		}
		// Min-norm point of {z : v + gᵀ(z − x) = 0}: z = g·(gᵀx − v)/‖g‖².
		t := (linalg.Dot(g, x) - v) / n2
		z := linalg.Scale(linalg.CopyVec(g), t)
		// Damped update.
		for i := range x {
			x[i] = 0.5*x[i] + 0.5*z[i]
		}
		if math.IsNaN(x[0]) {
			return nil, errors.New("model: min-norm iteration diverged")
		}
	}
	return x, nil
}

// StartOptions configures FindFailurePointContext.
type StartOptions struct {
	// TrainN is the number of training simulations for the response
	// surface (default 10·M for linear, 3·#coef for quadratic).
	TrainN int
	// TrainScale is the sampling radius multiplier for the training set:
	// points are drawn from N(0, TrainScale²·I) (default 3, wide enough
	// to see the failure side of the spec).
	TrainScale float64
	// UseQuadratic selects the quadratic model (default linear).
	UseQuadratic bool
	// MaxRadius bounds the outward search for a verified failure point
	// (default 10).
	MaxRadius float64
}

// rayBisections is how many bisections refine the ray crossing of the
// verified failure point.
const rayBisections = 10

func (o *StartOptions) defaults(dim int) StartOptions {
	d := StartOptions{TrainScale: 3, MaxRadius: 10}
	if o != nil {
		d = *o
		if d.TrainScale <= 0 {
			d.TrainScale = 3
		}
		if d.MaxRadius <= 0 {
			d.MaxRadius = 10
		}
	}
	if d.TrainN <= 0 {
		if d.UseQuadratic {
			d.TrainN = 3 * (1 + dim + dim*(dim+1)/2)
		} else {
			d.TrainN = 10 * dim
		}
	}
	return d
}

// FindFailurePointContext implements the model-based optimization of the
// paper's Algorithm 4 steps 1–2: fit a performance model from a few
// simulations, solve the norm-minimization problem (29) on it, then verify
// and refine the point against the real metric by walking the ray from the
// origin and bisecting the actual pass/fail boundary. The returned point
// is a simulation-verified failure point close to the most-likely failure
// point; the total simulation cost is metric-visible (pass a *mc.Counter).
//
// ctx is polled between training simulations (the search is sequential,
// so one simulation is the natural chunk); a cancel aborts with the
// context's error.
func FindFailurePointContext(ctx context.Context, metric mc.Metric, opts *StartOptions, rng *rand.Rand) ([]float64, error) {
	dim := metric.Dim()
	o := opts.defaults(dim)

	xs := make([][]float64, o.TrainN)
	ys := make([]float64, o.TrainN)
	for i := range xs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x := make([]float64, dim)
		for j := range x {
			x[j] = o.TrainScale * rng.NormFloat64()
		}
		xs[i] = x
		ys[i] = metric.Value(x)
	}

	var (
		x0  []float64
		err error
	)
	if o.UseQuadratic {
		var q *Quadratic
		q, err = FitQuadratic(xs, ys)
		if err == nil {
			x0, err = MinNormZeroSQP(q, dim, 50)
		}
	} else {
		var l *Linear
		l, err = FitLinear(xs, ys)
		if err == nil {
			x0, err = l.MinNormZero()
		}
	}
	if err != nil {
		return nil, err
	}
	if !finiteVec(x0) {
		return nil, fmt.Errorf("model: response-surface solution is not finite (training data may contain non-finite margins)")
	}
	return RefineAlongRay(metric, x0, o.MaxRadius, rayBisections)
}

// RefineAlongRay walks the ray from the origin through x0, locating the
// true pass/fail boundary by expansion and bisection, and returns a point
// just inside the failure region. It falls back to training-sample
// directions only through the caller; if the ray never fails within
// maxRadius it returns ErrNoFailureFound.
func RefineAlongRay(metric mc.Metric, x0 []float64, maxRadius float64, bisections int) ([]float64, error) {
	dim := metric.Dim()
	r0 := linalg.Norm2(x0)
	//reprolint:ignore floateq Norm2 is exactly 0 only for the all-zero start point; degenerate-solution guard
	if r0 == 0 || math.IsNaN(r0) || math.IsInf(r0, 0) {
		return nil, fmt.Errorf("%w (degenerate model solution, ‖x0‖ = %v)", ErrNoFailureFound, r0)
	}
	dir := linalg.Scale(linalg.CopyVec(x0), 1/r0)
	at := func(t float64) []float64 {
		p := linalg.CopyVec(dir)
		return linalg.Scale(p, t)
	}
	fails := func(t float64) bool { return metric.Value(at(t)) < 0 }

	// Find a failing radius at or beyond the model's estimate.
	tFail := math.NaN()
	for t := math.Min(r0, maxRadius); t <= maxRadius; t *= 1.25 {
		if fails(t) {
			tFail = t
			break
		}
	}
	if math.IsNaN(tFail) {
		if !fails(maxRadius) {
			return nil, ErrNoFailureFound
		}
		tFail = maxRadius
	}
	// Walk inward: find the innermost failing radius via bisection
	// between a passing inner radius and the failing one.
	tPass := 0.0
	for i := 0; i < bisections; i++ {
		mid := 0.5 * (tPass + tFail)
		if fails(mid) {
			tFail = mid
		} else {
			tPass = mid
		}
	}
	if dim == 0 {
		return nil, ErrNoFailureFound
	}
	return at(tFail), nil
}
