package gibbs

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func defOpts() *Options {
	o := (&Options{}).defaults()
	return &o
}

// oneSide adapts a plain indicator to failureIntervalStat's per-side
// margin probe through sign.
func oneSide(probe func(float64) bool) func(int, float64) float64 {
	return func(_ int, t float64) float64 { return sign(probe(t)) }
}

// sign maps a failure indicator to a margin: −1 fails, +1 passes.
func sign(fails bool) float64 {
	if fails {
		return -1
	}
	return 1
}

func TestFailureIntervalSimple(t *testing.T) {
	// Failure on [2, 3]; start inside.
	probe := func(x float64) bool { return x >= 2 && x <= 3 }
	u, v, st, _ := failureIntervalStat(oneSide(probe), 2.5, -8, 8, defOpts())
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
	u, v, st, _ := failureIntervalStat(oneSide(probe), 6, -8, 8, defOpts())
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
	u, v, st, _ := failureIntervalStat(oneSide(probe), 0, -8, 8, defOpts())
	if st == intervalNone || u != -8 || v != 8 {
		t.Fatalf("whole-range interval: [%v, %v] status=%v", u, v, st)
	}
}

func TestFailureIntervalRecoveryScan(t *testing.T) {
	// Start point passes; a failing segment exists at [4, 5].
	probe := func(x float64) bool { return x >= 4 && x <= 5 }
	u, v, st, _ := failureIntervalStat(oneSide(probe), 0, -8, 8, defOpts())
	if st == intervalNone {
		t.Fatal("scan failed to recover the failing segment")
	}
	if u < 3.8 || v > 5.2 || u > v {
		t.Fatalf("recovered interval [%v, %v]", u, v)
	}
}

func TestFailureIntervalNoFailure(t *testing.T) {
	probe := func(x float64) bool { return false }
	if _, _, st, _ := failureIntervalStat(oneSide(probe), 0, -8, 8, defOpts()); st != intervalNone {
		t.Fatal("found an interval in an all-pass line")
	}
}

func TestFailureIntervalNearestSegment(t *testing.T) {
	// Two failing segments; recovery must pick the one nearest the start.
	probe := func(x float64) bool {
		return (x >= -6 && x <= -5) || (x >= 3 && x <= 4)
	}
	u, v, st, _ := failureIntervalStat(oneSide(probe), 2, -8, 8, defOpts())
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
	u, v, st, _ := failureIntervalStat(oneSide(probe), 12, -8, 8, defOpts())
	if st == intervalNone || v != 8 || math.Abs(u-7) > 0.02 {
		t.Fatalf("clamped start: [%v, %v] status=%v", u, v, st)
	}
}

func TestBisectionAccuracyScalesWithIters(t *testing.T) {
	probe := func(x float64) bool { return x <= 1.234 }
	coarse := (&Options{Bisections: 3}).defaults()
	fine := (&Options{Bisections: 14}).defaults()
	_, vc, _, _ := failureIntervalStat(oneSide(probe), 0, -8, 8, &coarse)
	_, vf, _, _ := failureIntervalStat(oneSide(probe), 0, -8, 8, &fine)
	if math.Abs(vf-1.234) > math.Abs(vc-1.234) {
		t.Fatalf("more bisections should not be less accurate: %v vs %v", vf, vc)
	}
	if math.Abs(vf-1.234) > 1e-3 {
		t.Fatalf("fine boundary off: %v", vf)
	}
}

// TestFailureIntervalWorkersAgree searches each shape above in turn
// and, with a start probe slow enough to fork, with both edges at once:
// the interval, the status and the probe count must match bit for bit,
// and the count must be the number of probe calls.
func TestFailureIntervalWorkersAgree(t *testing.T) {
	shapes := []struct {
		name  string
		probe func(float64) bool
		t0    float64
	}{
		{"inside", func(x float64) bool { return x >= 2 && x <= 3 }, 2.5},
		{"touching bound", func(x float64) bool { return x >= 5 }, 6},
		{"whole range", func(float64) bool { return true }, 0},
		{"recovered", func(x float64) bool { return x >= 4 && x <= 5 }, 0},
		{"none", func(float64) bool { return false }, 0},
		{"clamped", func(x float64) bool { return x >= 7 }, 12},
	}
	runs := []struct {
		workers   int
		slowStart bool
	}{{0, false}, {1, true}, {2, false}, {2, true}}
	for _, sh := range shapes {
		var ref [4]uint64
		for i, run := range runs {
			o := defOpts()
			o.workers = run.workers
			var calls atomic.Int64
			probe := func(_ int, x float64) float64 {
				if calls.Add(1) == 1 && run.slowStart {
					time.Sleep(forkMinProbe)
				}
				return sign(sh.probe(x))
			}
			u, v, st, probes := failureIntervalStat(probe, sh.t0, -8, 8, o)
			if int64(probes) != calls.Load() {
				t.Fatalf("%s, %+v: reported %d probes, made %d", sh.name, run, probes, calls.Load())
			}
			got := [4]uint64{math.Float64bits(u), math.Float64bits(v), uint64(st), uint64(probes)}
			if i == 0 {
				ref = got
			} else if got != ref {
				t.Fatalf("%s, %+v: [%v, %v] status %v after %d probes, want [%v, %v] status %v after %d",
					sh.name, run, u, v, st, probes,
					math.Float64frombits(ref[0]), math.Float64frombits(ref[1]), intervalStatus(ref[2]), ref[3])
			}
		}
	}
}

// TestFailureIntervalForkNeedsSlowStart checks the fork gate at two
// workers: a search whose start probe returns at once keeps both edges
// on the caller's goroutine, however slow its later probes are, and one
// whose start probe is slow searches the two edges at once.
func TestFailureIntervalForkNeedsSlowStart(t *testing.T) {
	for _, slowStart := range []bool{false, true} {
		var (
			calls atomic.Int64
			slow  inFlight
		)
		probe := func(_ int, x float64) float64 {
			if calls.Add(1) > 1 || slowStart {
				slow.slowCall()
			}
			return sign(x >= 2 && x <= 3)
		}
		o := defOpts()
		o.workers = 2
		failureIntervalStat(probe, 2.5, -8, 8, o)
		want := int64(1)
		if slowStart {
			want = 2
		}
		if got := slow.peak.Load(); got != want {
			t.Fatalf("slow start %v: %d probes in flight at most, want %d", slowStart, got, want)
		}
	}
}
