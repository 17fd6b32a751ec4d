package gibbs

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refineShapes are margins of the signed distance d from an edge at
// d = 0, failing (negative) for d < 0, in the forms the circuit metrics
// take near a failure-interval edge.
var refineShapes = []struct {
	name   string
	margin func(d float64) float64
}{
	{"linear", func(d float64) float64 { return d }},
	{"cubic", func(d float64) float64 { return d * d * d }},
	{"exponential", func(d float64) float64 { return math.Expm1(3 * d) }},
	// readcurrent's read-disturb flip lobe: a shallow failing margin
	// that jumps to a large passing one.
	{"jump", func(d float64) float64 {
		if d < 0 {
			return -0.01 + 0.05*d
		}
		return 5 + d
	}},
	// access's no-crossing saturation: a flat failing plateau.
	{"plateau", func(d float64) float64 {
		if d < 0 {
			return -1
		}
		return d
	}},
	{"step", func(d float64) float64 { return sign(d < 0) }},
	{"nan", func(d float64) float64 {
		if d < 0 {
			return d
		}
		return math.NaN()
	}},
	{"inf", func(d float64) float64 {
		if d < 0 {
			return d
		}
		return math.Inf(1)
	}},
}

// TestRefineShapes refines each shape's edge at several places in
// brackets of both orientations and two widths, at every Bisections
// from 1 to 14. The returned point must fail (or be the starting
// failing point), lie in the bracket, be within the bracket's width
// over 2^Bisections of the edge, and cost at most Bisections+1 probes.
func TestRefineShapes(t *testing.T) {
	for _, sh := range refineShapes {
		for _, width := range []float64{0.5, 4} {
			for _, dir := range []float64{+1, -1} {
				for _, frac := range []float64{0.013, 0.31, 0.5, 0.77, 0.987} {
					for bis := 1; bis <= 14; bis++ {
						a := 1.25
						b := a + dir*width
						edge := a + dir*frac*width
						margin := func(x float64) float64 { return sh.margin(dir * (x - edge)) }
						probes := 0
						got := refine(func(x float64) float64 {
							probes++
							return margin(x)
						}, a, margin(a), b, margin(b), bis)
						where := fmt.Sprintf("%s, width %v, dir %+v, edge at %v, %d bisections", sh.name, width, dir, frac, bis)
						checkRefined(t, where, got, a, b, edge, margin, probes, bis)
					}
				}
			}
		}
	}
}

// checkRefined asserts refine's contract for a bracket [a, b] (a fails)
// whose single edge is at edge.
func checkRefined(t *testing.T, where string, got, a, b, edge float64, margin func(float64) float64, probes, bis int) {
	t.Helper()
	if !(margin(got) < 0) && got != a {
		t.Fatalf("%s: returned %v, which passes (margin %v)", where, got, margin(got))
	}
	if got < math.Min(a, b) || got > math.Max(a, b) {
		t.Fatalf("%s: returned %v, outside the bracket [%v, %v]", where, got, a, b)
	}
	if tol := refineTol(a, b, bis); math.Abs(got-edge) > tol {
		t.Fatalf("%s: returned %v, %v from the edge %v (tolerance %v)", where, got, math.Abs(got-edge), edge, tol)
	}
	if probes > bis+1 {
		t.Fatalf("%s: %d probes, want at most %d", where, probes, bis+1)
	}
}

// refineTol is how close refine must come to the edge in the bracket
// [a, b]: the bracket's width over 2^bis, with a 1e-12 relative
// allowance for rounding in the bracket's ends.
func refineTol(a, b float64, bis int) float64 {
	return math.Ldexp(math.Abs(b-a), -bis) + 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// TestRefineLinearBeatsBisection: on a linear margin the interpolant
// lands next to the edge, so ITP needs fewer probes than bisection's 6.
func TestRefineLinearBeatsBisection(t *testing.T) {
	for _, frac := range []float64{0.013, 0.31, 0.5, 0.77, 0.987} {
		probes := 0
		margin := func(x float64) float64 { return x - frac }
		refine(func(x float64) float64 {
			probes++
			return margin(x)
		}, 0, margin(0), 1, margin(1), 6)
		if probes >= 6 {
			t.Errorf("edge at %v: %d probes, bisection takes 6", frac, probes)
		}
	}
}

// FuzzRefine refines a random bracket of a random piecewise margin with
// jumps, NaN and ±Inf, which may cross zero several times. Whatever the
// margin, the search must probe only finite points inside the bracket,
// stop within Bisections+1 probes, and return a point that failed (or
// the starting one) next to a point seen to pass no farther away than
// the bracket's width over 2^Bisections.
func FuzzRefine(f *testing.F) {
	f.Add(0.0, 1.0, uint8(6), int64(1))
	f.Add(-3.5, -0.5, uint8(1), int64(2))
	f.Add(7.9, 0.1, uint8(14), int64(3))
	f.Add(2.0, 4.0, uint8(20), int64(4))
	f.Fuzz(func(t *testing.T, a, width float64, bisections uint8, seed int64) {
		if !(math.Abs(a) <= 100 && math.Abs(width) >= 1e-3 && math.Abs(width) <= 100) {
			t.Skip()
		}
		bis := 1 + int(bisections)%20
		b := a + width
		rng := rand.New(rand.NewSource(seed))
		margin := randomMargin(rng, a, b)
		ya, yb := -rng.ExpFloat64(), rng.ExpFloat64()
		switch rng.Intn(6) {
		case 0:
			ya = math.Inf(-1)
		case 1:
			yb = math.NaN()
		case 2:
			yb = math.Inf(1)
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		probes := 0
		passed := []float64{b}
		got := refine(func(x float64) float64 {
			probes++
			if !(x > lo && x < hi) {
				t.Fatalf("probe at %v, outside the bracket (%v, %v)", x, lo, hi)
			}
			y := margin(x)
			if !(y < 0) {
				passed = append(passed, x)
			}
			return y
		}, a, ya, b, yb, bis)
		if probes > bis+1 {
			t.Fatalf("%d probes at %d bisections", probes, bis)
		}
		if !(margin(got) < 0) && got != a {
			t.Fatalf("returned %v, which passes", got)
		}
		tol := refineTol(a, b, bis)
		for _, p := range passed {
			if math.Abs(p-got) <= tol {
				return
			}
		}
		t.Fatalf("returned %v with no passing point within %v: passed at %v", got, tol, passed)
	})
}

// randomMargin is a piecewise margin on the bracket from a to b: up to
// eight pieces, each linear, constant, NaN or ±Inf, so it may jump and
// cross zero anywhere.
func randomMargin(rng *rand.Rand, a, b float64) func(float64) float64 {
	n := 1 + rng.Intn(8)
	cuts := make([]float64, n)
	kinds := make([]int, n)
	offs := make([]float64, n)
	slopes := make([]float64, n)
	for i := range cuts {
		cuts[i] = rng.Float64()
		kinds[i] = rng.Intn(6)
		offs[i] = rng.NormFloat64()
		slopes[i] = 10 * rng.NormFloat64()
	}
	return func(x float64) float64 {
		s := (x - a) / (b - a)
		i := 0
		for j, c := range cuts {
			if s >= c {
				i = j
			}
		}
		switch kinds[i] {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		case 3:
			return offs[i]
		}
		return offs[i] + slopes[i]*(s-cuts[i])
	}
}
