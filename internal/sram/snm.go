package sram

import "sort"

// curve is a sampled transfer curve y(x) with clamped linear
// interpolation. Cell VTCs are monotone, but interpolation only assumes
// sorted x.
type curve struct {
	xs, ys []float64 // xs strictly increasing
}

// at evaluates the curve at x, clamping outside the sampled range (the
// rails extend flat, which is physically what the inverter does).
func (c *curve) at(x float64) float64 {
	n := len(c.xs)
	if n == 0 {
		panic("sram: empty curve")
	}
	if x <= c.xs[0] {
		return c.ys[0]
	}
	if x >= c.xs[n-1] {
		return c.ys[n-1]
	}
	i := sort.SearchFloat64s(c.xs, x)
	// xs[i-1] < x ≤ xs[i]
	x0, x1 := c.xs[i-1], c.xs[i]
	y0, y1 := c.ys[i-1], c.ys[i]
	t := (x - x0) / (x1 - x0)
	return y0 + t*(y1-y0)
}

// eyeSquare computes the signed side of the largest axis-aligned square
// nested in one eye of the butterfly plot formed by the transfer curves
// g1: y = g1(x) and g2: x = g2(y) (both monotone decreasing).
//
// For the state-0 eye (x low, y high; lobe = 0) a square of side s fits
// with its bottom edge at y = b iff b + s ≤ g1(g2(b) + s); the largest
// such s at a given b is the root of the decreasing function
// h(s) = g1(g2(b) + s) − b − s, found by bisection on interpolated curves
// only (no circuit simulation). The eye size is max over b. The state-1
// eye (lobe = 1) follows by exchanging the curves' roles.
//
// The returned value is continuous through zero: when the eye has
// collapsed (monostable cell) it is negative, measuring how far the
// curves overlap — exactly the margin polarity the failure indicator
// needs. vdd scales the search ranges.
func eyeSquare(g1, g2 *curve, lobe int, vdd float64) float64 {
	outer, inner := g1, g2
	if lobe == 1 {
		outer, inner = g2, g1
	}
	sAt := func(b float64) float64 { return eyeSide(outer, inner, b) }
	// Coarse scan of the square's base coordinate followed by ternary
	// refinement around the best cell.
	const coarse = 81
	bestB, bestS := 0.0, sAt(0)
	for i := 1; i < coarse; i++ {
		b := vdd * float64(i) / float64(coarse-1)
		if s := sAt(b); s > bestS {
			bestB, bestS = b, s
		}
	}
	step := vdd / float64(coarse-1)
	// Clamp the refinement bracket to the physical base range: outside
	// [0, vdd] the clamped curves make sAt report spurious positive
	// sides (the flat rails overlap trivially), which the exact root
	// finder would otherwise faithfully maximize.
	lo, hi := bestB-step, bestB+step
	if lo < 0 {
		lo = 0
	}
	if hi > vdd {
		hi = vdd
	}
	for i := 0; i < 40; i++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if sAt(m1) < sAt(m2) {
			lo = m1
		} else {
			hi = m2
		}
	}
	if s := sAt(0.5 * (lo + hi)); s > bestS {
		bestS = s
	}
	return bestS
}

// eyeSide returns the exact root of h(s) = outer.at(inner.at(b)+s) − b − s,
// the largest square side anchored at base coordinate b. h is strictly
// decreasing in s (dh/ds ≤ −1, curves monotone decreasing), and with the
// substitution u = inner.at(b) + s the root condition becomes
// φ(u) = outer.at(u) − u + (inner.at(b) − b) = 0 — piecewise linear and
// strictly decreasing in u, with its knot values readable directly off the
// sample arrays. A binary search over the knots followed by one linear
// solve replaces the 60-round bisection this routine previously ran (and
// the ~120 interpolations it cost); eyeSquare calls sAt a few hundred
// times per eye, so this is the dominant cost of every noise-margin
// metric evaluation.
func eyeSide(outer, inner *curve, b float64) float64 {
	a := inner.at(b)
	c := a - b // φ(u) = outer.at(u) − u + c
	xs, ys := outer.xs, outer.ys
	n := len(xs)
	// Beyond the sampled range the curve clamps flat, so φ is linear with
	// slope −1: the root is read off directly.
	if ys[0]-xs[0]+c < 0 {
		return ys[0] - b // u = ys[0] + c, s = u − a
	}
	if ys[n-1]-xs[n-1]+c > 0 {
		return ys[n-1] + c - a
	}
	// Largest knot k with φ(xs[k]) ≥ 0; the root lies in [xs[k], xs[k+1]].
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if ys[mid]-xs[mid]+c >= 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	x0, x1 := xs[lo], xs[hi]
	y0, y1 := ys[lo], ys[hi]
	m := (y1 - y0) / (x1 - x0)
	// φ on the segment: y0 + m(u−x0) − u + c = 0. The slope m is ≤ 0 for
	// a monotone-decreasing curve, so 1 − m ≥ 1 and the division is
	// well-conditioned even across a near-vertical VTC transition.
	u := (y0 - m*x0 + c) / (1 - m)
	return u - a
}

// Curve is a sampled transfer curve exposed to external consumers (the
// butterfly command and plots).
type Curve struct {
	X, Y []float64
}

// TransferCurves returns the two butterfly curves in the given
// configuration: g1 maps a forced Q to the resulting QB, g2 maps a forced
// QB to the resulting Q. They are traced with the engine's sweep
// templates and continuation (sweepCurve), so in the read configuration
// they are exactly the curves the RNM metric extracts its eye from.
func TransferCurves(c *Cell, cfg BiasConfig, dvth [NumTransistors]float64) (g1, g2 *Curve, err error) {
	var cs [2]curve
	for i, nodes := range [2][2]string{{"q", "qb"}, {"qb", "q"}} {
		t, err := newSweepTemplate(c, cfg, nodes[0], nodes[1])
		if err != nil {
			return nil, nil, err
		}
		if err := sweepCurve(c, t, dvth[:], &cs[i]); err != nil {
			return nil, nil, err
		}
	}
	return &Curve{X: cs[0].xs, Y: cs[0].ys}, &Curve{X: cs[1].xs, Y: cs[1].ys}, nil
}

// SNM holds the two eye sizes of a butterfly plot.
type SNM struct {
	// Eye0 is the signed square side of the eye around the state Q=0
	// crossing; Eye1 around Q=1. Negative means the eye has collapsed.
	Eye0, Eye1 float64
}

// Min returns the classical static noise margin: the smaller eye.
func (s SNM) Min() float64 {
	if s.Eye0 < s.Eye1 {
		return s.Eye0
	}
	return s.Eye1
}

// NoiseMargins extracts both butterfly eyes in the given configuration.
// Eye0 in the read configuration is the RNM metric's raw value.
func (c *Cell) NoiseMargins(cfg BiasConfig, dvth [NumTransistors]float64) (SNM, error) {
	c1, c2, err := TransferCurves(c, cfg, dvth)
	if err != nil {
		return SNM{}, err
	}
	g1, g2 := &curve{xs: c1.X, ys: c1.Y}, &curve{xs: c2.X, ys: c2.Y}
	return SNM{
		Eye0: eyeSquare(g1, g2, 0, c.VDD),
		Eye1: eyeSquare(g1, g2, 1, c.VDD),
	}, nil
}
