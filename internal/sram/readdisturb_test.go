package sram

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/telemetry"
)

// TestReadDisturbedCornersAreCheap: at corners where the cell flips
// during the read, neither the warm attempt from the read-0 anchor nor
// the cold path's plain Newton from readGuess can converge (Newton
// oscillates between the two basins); the gmin ladder finds the flipped
// state. Both doomed attempts must give up on their stall rather than
// run out their full budgets first, so the whole solve stays within 100
// Newton iterations. Raw takes the production read path (template,
// anchor, read-0 guard), and telemetry counts each call as one solve
// whose newton_iterations observation covers every attempt.
func TestReadDisturbedCornersAreCheap(t *testing.T) {
	m := ReadCurrentWorkload()
	reg := telemetry.New()
	m.SetTelemetry(reg)
	m.ensureAnchor() // solved first, so no corner is charged for it
	iters := reg.Scope("spice").Histogram("newton_iterations", nil)
	for _, x := range [][]float64{{6, -6}, {5.5, -5}, {6.5, -4}} {
		var d [NumTransistors]float64
		for j, tr := range m.Which {
			d[tr] = m.Cell.SigmaVth * x[j]
		}
		count, sum := iters.Count(), iters.Sum()
		cur, err := m.Raw(d)
		if err != nil {
			t.Fatalf("x=%v: %v", x, err)
		}
		if got := iters.Count() - count; got != 1 {
			t.Fatalf("x=%v: %d solves recorded, want 1", x, got)
		}
		// A flipped cell (q ≈ VDD) carries femtoamps; read-0, tens of µA.
		if cur > 1e-9 {
			t.Errorf("x=%v: read current %.3g A, want the flipped state", x, cur)
		}
		if n := iters.Sum() - sum; n > 100 {
			t.Errorf("x=%v: flipped solve took %.0f Newton iterations, want ≤ 100", x, n)
		}
	}
}

// foldRays are the directions, in degrees from the +x1 (driver ΔVth)
// axis, of the rays foldSamples walks through the read-disturb flip lobe
// (weak driver, strong access: x1 > 0, x3 < 0).
var foldRays = []int{-20, -30, -40, -50, -60, -70, -80}

// foldSamples is a deterministic read-current sample set that crosses
// the read-disturb fold: each of foldRays walked from 3σ to 8σ in 0.05σ
// steps (101 points per ray, in ray order), followed by the equivalence
// suite's mixed set equivalenceSamples(11, 256, 2).
func foldSamples() [][]float64 {
	var xs [][]float64
	for _, deg := range foldRays {
		th := float64(deg) * math.Pi / 180
		for k := 0; k <= 100; k++ {
			r := 3 + 0.05*float64(k)
			xs = append(xs, []float64{r * math.Cos(th), r * math.Sin(th)})
		}
	}
	return append(xs, equivalenceSamples(11, 256, 2)...)
}

// foldDigest is the SHA-256 of the little-endian Float64bits of
// ReadCurrentWorkload().Value over foldSamples, in order, on amd64. It
// was recorded by running this test, with a placeholder digest, against
// the solver of commit 196a434 (the parent of the Newton stall exit) and
// copying the digest from the failure message, and re-recorded the same
// way when softplusSq moved to one exponential. A change that moves these
// bits on purpose records the new digest here and says so in CHANGES.md.
const foldDigest = "96f5b60e3722feac80281970fd64437d4c0a516370c1c7670cd46e01d30e001f"

// TestReadCurrentFoldBitsPinned: convergence work in the solver (the
// stall exit, the gmin ladder) must not move a single read-current value
// on either side of the read-disturb fold, where the warm start, the
// read-0 guard and the cold escalation all take turns.
func TestReadCurrentFoldBitsPinned(t *testing.T) {
	m := ReadCurrentWorkload()
	xs := foldSamples()
	out := make([]float64, len(xs))
	m.ValueBatch(xs, out)

	// Every ray must cross the fold: a flipped cell carries essentially
	// no read current (fA), a read-0 cell tens of µA.
	flippedBelow := (1e-9 - m.Spec) * m.Scale
	for r, deg := range foldRays {
		flipped := 0
		for _, v := range out[r*101 : (r+1)*101] {
			if v < flippedBelow {
				flipped++
			}
		}
		if flipped == 0 || flipped == 101 {
			t.Fatalf("ray %d°: %d of 101 samples flipped; the ray does not cross the fold", deg, flipped)
		}
	}

	// The Go spec lets a compiler fuse x*y + z into one rounding. The
	// arm64 back end (among others) does, which moves low bits of the
	// solves; amd64 never fuses, and the digest is amd64's.
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	if got := bitsDigest(out); got != foldDigest {
		t.Fatalf("read-current Value bits over %d fold samples: digest %s, want %s", len(xs), got, foldDigest)
	}
}
