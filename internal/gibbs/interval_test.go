package gibbs

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stat"
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

// noCut is an improper law with infinite mass beyond every point, so
// the mass past a walk's probe is never negligible (∞ − ∞ reads NaN)
// and no walk under it is cut: it walks as the search did before the
// cut.
func noCut(float64, bool) float64 { return math.Inf(1) }

func TestFailureIntervalSimple(t *testing.T) {
	// Failure on [2, 3]; start inside.
	probe := func(x float64) bool { return x >= 2 && x <= 3 }
	u, v, st, _ := failureIntervalStat(oneSide(probe), 2.5, -8, 8, normalLaw, defOpts())
	if st == intervalNone {
		t.Fatal("interval not found")
	}
	if math.Abs(u-2) > 0.02 || math.Abs(v-3) > 0.02 {
		t.Fatalf("interval [%v, %v], want ≈[2, 3]", u, v)
	}
}

// TestFailureIntervalTouchingBound and TestFailureIntervalWholeRange
// walk under noCut, whose tail past the walk is never negligible, so
// each walk runs on to its bound; under N(0, 1) the cut ends them at 7.5
// and at ±3.5 (TestFailureIntervalCutWalks).
func TestFailureIntervalTouchingBound(t *testing.T) {
	// Failure region extends past the upper bound.
	probe := func(x float64) bool { return x >= 5 }
	u, v, st, _ := failureIntervalStat(oneSide(probe), 6, -8, 8, noCut, defOpts())
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
	u, v, st, _ := failureIntervalStat(oneSide(probe), 0, -8, 8, noCut, defOpts())
	if st == intervalNone || u != -8 || v != 8 {
		t.Fatalf("whole-range interval: [%v, %v] status=%v", u, v, st)
	}
}

func TestFailureIntervalRecoveryScan(t *testing.T) {
	// Start point passes; a failing segment exists at [4, 5].
	probe := func(x float64) bool { return x >= 4 && x <= 5 }
	u, v, st, _ := failureIntervalStat(oneSide(probe), 0, -8, 8, normalLaw, defOpts())
	if st == intervalNone {
		t.Fatal("scan failed to recover the failing segment")
	}
	if u < 3.8 || v > 5.2 || u > v {
		t.Fatalf("recovered interval [%v, %v]", u, v)
	}
}

func TestFailureIntervalNoFailure(t *testing.T) {
	probe := func(x float64) bool { return false }
	if _, _, st, _ := failureIntervalStat(oneSide(probe), 0, -8, 8, normalLaw, defOpts()); st != intervalNone {
		t.Fatal("found an interval in an all-pass line")
	}
}

func TestFailureIntervalNearestSegment(t *testing.T) {
	// Two failing segments; recovery must pick the one nearest the start.
	probe := func(x float64) bool {
		return (x >= -6 && x <= -5) || (x >= 3 && x <= 4)
	}
	u, v, st, _ := failureIntervalStat(oneSide(probe), 2, -8, 8, normalLaw, defOpts())
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
	u, v, st, _ := failureIntervalStat(oneSide(probe), 12, -8, 8, normalLaw, defOpts())
	if st == intervalNone || v != 8 || math.Abs(u-7) > 0.02 {
		t.Fatalf("clamped start: [%v, %v] status=%v", u, v, st)
	}
}

func TestBisectionAccuracyScalesWithIters(t *testing.T) {
	probe := func(x float64) bool { return x <= 1.234 }
	coarse := (&Options{Bisections: 3}).defaults()
	fine := (&Options{Bisections: 14}).defaults()
	_, vc, _, _ := failureIntervalStat(oneSide(probe), 0, -8, 8, normalLaw, &coarse)
	_, vf, _, _ := failureIntervalStat(oneSide(probe), 0, -8, 8, normalLaw, &fine)
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
// and the count must be the number of probe calls. The cut shapes end
// one edge's walk or both by the law.
func TestFailureIntervalWorkersAgree(t *testing.T) {
	rmax := radiusBound(2)
	shapes := []struct {
		name   string
		probe  func(float64) bool
		t0     float64
		lo, hi float64
		law    coordLaw
	}{
		{"inside", func(x float64) bool { return x >= 2 && x <= 3 }, 2.5, -8, 8, normalLaw},
		{"touching bound", func(x float64) bool { return x >= 5 }, 6, -8, 8, noCut},
		{"whole range", func(float64) bool { return true }, 0, -8, 8, noCut},
		{"recovered", func(x float64) bool { return x >= 4 && x <= 5 }, 0, -8, 8, normalLaw},
		{"none", func(float64) bool { return false }, 0, -8, 8, normalLaw},
		{"clamped", func(x float64) bool { return x >= 7 }, 12, -8, 8, normalLaw},
		{"cut touching bound", func(x float64) bool { return x >= 5 }, 6, -8, 8, normalLaw},
		{"cut whole range", func(float64) bool { return true }, 0, -8, 8, normalLaw},
		{"cut radius", func(r float64) bool { return r >= 4.7 }, 4.8, 0, rmax, chiLaw(2)},
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
			u, v, st, probes := failureIntervalStat(probe, sh.t0, sh.lo, sh.hi, sh.law, o)
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
		failureIntervalStat(probe, 2.5, -8, 8, normalLaw, o)
		want := int64(1)
		if slowStart {
			want = 2
		}
		if got := slow.peak.Load(); got != want {
			t.Fatalf("slow start %v: %d probes in flight at most, want %d", slowStart, got, want)
		}
	}
}

// radiusBound is the spherical chain's radius bound in dim dimensions,
// as SphericalChainContext sets it.
func radiusBound(dim int) float64 { return stat.Chi{K: dim}.Quantile(1-1e-12) + 2 }

// recordProbes wraps an indicator as a per-side margin probe and keeps
// every point probed.
func recordProbes(fails func(float64) bool, points *[]float64) func(int, float64) float64 {
	return func(_ int, t float64) float64 {
		*points = append(*points, t)
		return sign(fails(t))
	}
}

// TestFailureIntervalCutWalks checks where the tail cut ends a walk. A
// Chi(2) radius that fails for every r ≥ 4.7, walked from 4.8, stops
// after its 6.3 probe: Chi(2)'s SF(6.3)/SF(4.8) is 2.4e-4. The whole
// line failing under N(0, 1) stops at ±3.5 and the region touching the
// bound at 7.5, where the search without the cut reaches ±8.
func TestFailureIntervalCutWalks(t *testing.T) {
	rmax, r0 := radiusBound(2), 4.8
	var probed []float64
	u, v, st, probes := failureIntervalStat(recordProbes(func(r float64) bool { return r >= 4.7 }, &probed), r0, 0, rmax, chiLaw(2), defOpts())
	if want := r0 + 0.5 + 1; st != intervalAtCurrent || v != want || math.Abs(u-4.7) > 0.5/64 {
		t.Fatalf("radius: [%v, %v] status %v, want [≈4.7, %v]", u, v, st, want)
	}
	for _, r := range probed {
		if r > v {
			t.Fatalf("radius: probed %v, above the cut edge %v (rmax %v)", r, v, rmax)
		}
	}
	if probes != len(probed) {
		t.Fatalf("radius: reported %d probes, made %d", probes, len(probed))
	}
	cases := []struct {
		name      string
		fails     func(float64) bool
		t0        float64
		wantU     float64
		wantV     float64
		wantExact bool
	}{
		{"whole line", func(float64) bool { return true }, 0, -3.5, 3.5, true},
		{"touching bound", func(x float64) bool { return x >= 5 }, 6, 5, 7.5, false},
	}
	for _, c := range cases {
		u, v, _, _ := failureIntervalStat(oneSide(c.fails), c.t0, -8, 8, normalLaw, defOpts())
		if v != c.wantV || (c.wantExact && u != c.wantU) || math.Abs(u-c.wantU) > 1.0/64 {
			t.Errorf("%s: [%v, %v], want [%v, %v]", c.name, u, v, c.wantU, c.wantV)
		}
	}
}

// TestFailureIntervalPassBeforeCut: a walk that meets a passing probe
// before the cut point refines as the search without the cut does, to
// the same bits and probe count. From 0.3 under N(0, 1) the cut would
// end the walk at its 3.8 probe; an edge at 2.5 makes that probe pass.
func TestFailureIntervalPassBeforeCut(t *testing.T) {
	fails := func(x float64) bool { return x > -1.2 && x <= 2.5 }
	u, v, st, probes := failureIntervalStat(oneSide(fails), 0.3, -8, 8, normalLaw, defOpts())
	u0, v0, st0, probes0 := failureIntervalStat(oneSide(fails), 0.3, -8, 8, noCut, defOpts())
	if u != u0 || v != v0 || st != st0 || probes != probes0 {
		t.Fatalf("[%v, %v] status %v after %d probes with the cut, [%v, %v] status %v after %d without",
			u, v, st, probes, u0, v0, st0, probes0)
	}
	if math.Abs(v-2.5) > 2.0/64 || math.Abs(u+1.2) > 1.0/64 {
		t.Fatalf("[%v, %v], want ≈[-1.2, 2.5]", u, v)
	}
}

// TestFailureIntervalDeepTailReachesBound: an α_m walk whose remaining
// tail is not negligible against the walked mass still returns ±ζ. From
// ±7 under N(0, 1) the 7.5 probe leaves 2.5% of the walked mass beyond
// it, so the walk goes on to the bound.
func TestFailureIntervalDeepTailReachesBound(t *testing.T) {
	u, v, _, _ := failureIntervalStat(oneSide(func(x float64) bool { return x >= 5 }), 7, -zeta, zeta, normalLaw, defOpts())
	if v != zeta || math.Abs(u-5) > 1.0/64 {
		t.Errorf("upper tail: [%v, %v], want [≈5, %v]", u, v, float64(zeta))
	}
	u, v, _, _ = failureIntervalStat(oneSide(func(x float64) bool { return x <= -5 }), -7, -zeta, zeta, normalLaw, defOpts())
	if u != -zeta || math.Abs(v+5) > 1.0/64 {
		t.Errorf("lower tail: [%v, %v], want [%v, ≈-5]", u, v, float64(-zeta))
	}
}

// FuzzExpand walks from a random failing t0 toward each bound of a
// random piecewise margin with gaps, NaN and ±Inf, under N(0, 1) on
// [−ζ, ζ] or Chi(K ≤ 8) on [0, rmax]. Every edge must be t0 or a probe
// that failed; an edge the cut ended (one with no probe beyond it, short
// of the bound) must leave at most tailCut of the walked mass beyond it;
// and the walk must make no more probes than under noCut.
func FuzzExpand(f *testing.F) {
	f.Add(0.3, uint8(0), uint8(6), int64(1))
	f.Add(4.8, uint8(2), uint8(6), int64(2))
	f.Add(-7.0, uint8(0), uint8(3), int64(3))
	f.Add(0.1, uint8(6), uint8(14), int64(4))
	f.Fuzz(func(t *testing.T, t0 float64, k, bisections uint8, seed int64) {
		dim := int(k) % 9 // 0 is N(0, 1), 1..8 is Chi(dim)
		law, lo, hi := coordLaw(normalLaw), -float64(zeta), float64(zeta)
		if dim > 0 {
			law, lo, hi = chiLaw(dim), 0, radiusBound(dim)
		}
		if !(t0 >= lo && t0 <= hi) {
			t.Skip()
		}
		bis := 1 + int(bisections)%14
		rng := rand.New(rand.NewSource(seed))
		margin := randomMargin(rng, lo, hi)
		y0 := -rng.ExpFloat64()
		for _, bound := range []float64{lo, hi} {
			step := math.Copysign(expandStep, bound-t0)
			walk := func(law coordLaw) (edge float64, probed []float64, failed map[float64]bool) {
				failed = map[float64]bool{}
				edge = expand(func(x float64) float64 {
					probed = append(probed, x)
					y := margin(x)
					if y < 0 {
						failed[x] = true
					}
					return y
				}, t0, y0, bound, step, bis, law)
				return edge, probed, failed
			}
			edge, probed, failed := walk(law)
			_, uncut, _ := walk(noCut)
			if edge != t0 && !failed[edge] {
				t.Fatalf("walk from %v to %v: edge %v is neither the start nor a failed probe (probed %v)", t0, bound, edge, probed)
			}
			if len(probed) > len(uncut) {
				t.Fatalf("walk from %v to %v: %d probes with the cut, %d without", t0, bound, len(probed), len(uncut))
			}
			beyond := false
			for _, x := range probed {
				if (x-edge)*step > 0 {
					beyond = true
				}
			}
			if beyond || edge == bound || edge == t0 {
				continue
			}
			up := step > 0
			tail, walked := law(edge, up)-law(bound, up), law(t0, up)-law(edge, up)
			if !(tail <= tailCut*walked) {
				t.Fatalf("walk from %v to %v ended at %v with mass %v beyond it, walked %v", t0, bound, edge, tail, walked)
			}
		}
	})
}
