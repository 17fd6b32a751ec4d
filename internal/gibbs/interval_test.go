package gibbs

import (
	"math"
	"testing"
)

func defOpts() *Options {
	o := (&Options{}).defaults()
	return &o
}

func TestFailureIntervalSimple(t *testing.T) {
	// Failure on [2, 3]; start inside.
	probe := func(x float64) bool { return x >= 2 && x <= 3 }
	u, v, st := failureIntervalStat(probe, 2.5, -8, 8, defOpts())
	if st == intervalNone {
		t.Fatal("interval not found")
	}
	if math.Abs(u-2) > 0.02 || math.Abs(v-3) > 0.02 {
		t.Fatalf("interval [%v, %v], want ≈[2, 3]", u, v)
	}
}

func TestFailureIntervalTouchingBound(t *testing.T) {
	// Failure region extends past the upper bound.
	probe := func(x float64) bool { return x >= 5 }
	u, v, st := failureIntervalStat(probe, 6, -8, 8, defOpts())
	if st == intervalNone {
		t.Fatal("interval not found")
	}
	if v != 8 {
		t.Fatalf("upper boundary should clamp to bound, got %v", v)
	}
	if math.Abs(u-5) > 0.02 {
		t.Fatalf("lower boundary %v, want ≈5", u)
	}
}

func TestFailureIntervalWholeRange(t *testing.T) {
	probe := func(x float64) bool { return true }
	u, v, st := failureIntervalStat(probe, 0, -8, 8, defOpts())
	if st == intervalNone || u != -8 || v != 8 {
		t.Fatalf("whole-range interval: [%v, %v] status=%v", u, v, st)
	}
}

func TestFailureIntervalRecoveryScan(t *testing.T) {
	// Start point passes; a failing segment exists at [4, 5].
	probe := func(x float64) bool { return x >= 4 && x <= 5 }
	u, v, st := failureIntervalStat(probe, 0, -8, 8, defOpts())
	if st == intervalNone {
		t.Fatal("scan failed to recover the failing segment")
	}
	if u < 3.8 || v > 5.2 || u > v {
		t.Fatalf("recovered interval [%v, %v]", u, v)
	}
}

func TestFailureIntervalNoFailure(t *testing.T) {
	probe := func(x float64) bool { return false }
	if _, _, st := failureIntervalStat(probe, 0, -8, 8, defOpts()); st != intervalNone {
		t.Fatal("found an interval in an all-pass line")
	}
}

func TestFailureIntervalNearestSegment(t *testing.T) {
	// Two failing segments; recovery must pick the one nearest the start.
	probe := func(x float64) bool {
		return (x >= -6 && x <= -5) || (x >= 3 && x <= 4)
	}
	u, v, st := failureIntervalStat(probe, 2, -8, 8, defOpts())
	if st == intervalNone {
		t.Fatal("not found")
	}
	if u < 2.5 || v > 4.5 {
		t.Fatalf("expected the [3,4] segment, got [%v, %v]", u, v)
	}
}

func TestFailureIntervalStartClamped(t *testing.T) {
	probe := func(x float64) bool { return x >= 7 }
	// Start outside the bounds must be clamped, not crash.
	u, v, st := failureIntervalStat(probe, 12, -8, 8, defOpts())
	if st == intervalNone || v != 8 || math.Abs(u-7) > 0.02 {
		t.Fatalf("clamped start: [%v, %v] status=%v", u, v, st)
	}
}

func TestBisectionAccuracyScalesWithIters(t *testing.T) {
	probe := func(x float64) bool { return x <= 1.234 }
	coarse := (&Options{Bisections: 3}).defaults()
	fine := (&Options{Bisections: 14}).defaults()
	_, vc, _ := failureIntervalStat(probe, 0, -8, 8, &coarse)
	_, vf, _ := failureIntervalStat(probe, 0, -8, 8, &fine)
	if math.Abs(vf-1.234) > math.Abs(vc-1.234) {
		t.Fatalf("more bisections should not be less accurate: %v vs %v", vf, vc)
	}
	if math.Abs(vf-1.234) > 1e-3 {
		t.Fatalf("fine boundary off: %v", vf)
	}
}
