package repro

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/surrogate"
)

// The facade must drive every method to the analytic answer on a linear
// metric.
func TestEstimateAllMethodsOnLinear(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 6.5} // Pf ≈ 2.1e-6
	exact := lin.ExactPf()
	for _, m := range []Method{MIS, MNIS, GC, GS} {
		opts := Options{Method: m, N: 40000, Seed: 7}
		if m == MIS {
			opts.K = 4000
		}
		res, err := Estimate(lin, opts)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if math.Abs(res.Pf-exact)/exact > 0.25 {
			t.Fatalf("%s: Pf %v, exact %v", m, res.Pf, exact)
		}
		if res.TotalSims != res.Stage1Sims+res.Stage2Sims {
			t.Fatalf("%s: sim accounting inconsistent", m)
		}
		if res.Stage1Sims <= 0 || res.Stage2Sims <= 0 {
			t.Fatalf("%s: stages not recorded: %d/%d", m, res.Stage1Sims, res.Stage2Sims)
		}
	}
}

func TestEstimateMC(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 2} // Pf ≈ 2.28e-2
	res, err := Estimate(lin, Options{Method: MC, N: 200000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	exact := lin.ExactPf()
	if math.Abs(res.Pf-exact)/exact > 0.05 {
		t.Fatalf("MC Pf %v, exact %v", res.Pf, exact)
	}
	if res.TotalSims != 200000 {
		t.Fatalf("MC total sims %d", res.TotalSims)
	}
}

func TestEstimateMCSequentialWithTrace(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 1.5}
	res, err := Estimate(lin, Options{Method: MC, N: 5000, Seed: 4, TraceEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 5 {
		t.Fatalf("trace length %d", len(res.Trace))
	}
}

func TestEstimateTargetMode(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 6}
	res, err := Estimate(lin, Options{Method: GS, Target: 0.05, N: 500000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.RelErr99 > 0.05 {
		t.Fatalf("target missed: %v", res.RelErr99)
	}
	exact := lin.ExactPf()
	if math.Abs(res.Pf-exact)/exact > 0.15 {
		t.Fatalf("Pf %v vs %v", res.Pf, exact)
	}

	// The brute-force tallies honour Target through the same fold.
	wide := &surrogate.Linear{W: []float64{1, 0}, B: 2.5} // Pf ≈ 6.2e-3
	for _, m := range []Method{MC, Blockade} {
		const limit = 1 << 22
		res, err := Estimate(wide, Options{Method: m, K: 500, Target: 0.1, N: limit, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.RelErr99 > 0.1 || res.N >= limit {
			t.Fatalf("%s: target ignored: relerr99 %v after %d samples", m, res.RelErr99, res.N)
		}
		if exact := wide.ExactPf(); math.Abs(res.Pf-exact)/exact > 0.15 {
			t.Fatalf("%s: Pf %v vs %v", m, res.Pf, exact)
		}
	}
}

func TestEstimateGibbsExtras(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 4}
	res, err := Estimate(lin, Options{Method: GC, K: 200, N: 2000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GibbsSamples) != 200 {
		t.Fatalf("gibbs samples %d", len(res.GibbsSamples))
	}
	if len(res.DistortionMean) != 2 {
		t.Fatalf("distortion mean %v", res.DistortionMean)
	}
}

func TestEstimateValidation(t *testing.T) {
	if _, err := Estimate(nil, Options{}); err == nil {
		t.Fatal("nil metric must error")
	}
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 4}
	if _, err := Estimate(lin, Options{Method: Method("bogus")}); err == nil {
		t.Fatal("bogus method must error")
	}
}

func TestParseMethod(t *testing.T) {
	for _, s := range []string{"mc", "mis", "mnis", "g-c", "g-s"} {
		if _, err := ParseMethod(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	if _, err := ParseMethod("nope"); err == nil {
		t.Fatal("expected parse error")
	}
	if len(Methods()) != 4 {
		t.Fatal("Methods should list the four compared estimators")
	}
}

func TestDeterminism(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 5}
	a, err := Estimate(lin, Options{Method: GS, K: 150, N: 1500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(lin, Options{Method: GS, K: 150, N: 1500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Pf != b.Pf || a.TotalSims != b.TotalSims {
		t.Fatalf("same seed must reproduce: %v/%d vs %v/%d", a.Pf, a.TotalSims, b.Pf, b.TotalSims)
	}
	c, err := Estimate(lin, Options{Method: GS, K: 150, N: 1500, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if a.Pf == c.Pf {
		t.Fatal("different seeds should differ")
	}
}

func TestWorkloadConstructors(t *testing.T) {
	if RNMWorkload().Dim() != 6 || WNMWorkload().Dim() != 6 || ReadCurrentWorkload().Dim() != 2 {
		t.Fatal("workload dims wrong")
	}
	if DualReadCurrentWorkload().Dim() != 2 || AccessTimeWorkload().Dim() != 2 {
		t.Fatal("extended workload dims wrong")
	}
}

func TestEstimateBlockade(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 3} // Pf ≈ 1.35e-3
	res, err := Estimate(lin, Options{Method: Blockade, K: 500, N: 200000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	exact := lin.ExactPf()
	if math.Abs(res.Pf-exact)/exact > 0.2 {
		t.Fatalf("blockade Pf %v vs %v", res.Pf, exact)
	}
	if res.TotalSims >= int64(res.N) {
		t.Fatal("blockade should simulate fewer points than it streams")
	}
}

func TestEstimateMixtureOption(t *testing.T) {
	two := &surrogate.SeriesStack{A: 4.0}
	res, err := Estimate(two, Options{Method: GS, K: 1000, N: 5000, Seed: 10, Mixture: 2})
	if err != nil {
		t.Fatal(err)
	}
	exact := two.ExactPf()
	if math.Abs(res.Pf-exact)/exact > 0.3 {
		t.Fatalf("mixture G-S Pf %v vs %v", res.Pf, exact)
	}
}

// TestEstimateBitsPinned pins what each of the seven methods returns on
// readcurrent at a small budget (K 200, N 2000, seed 3, 2 workers): a
// SHA-256 over the little-endian bits of Pf, StdErr, RelErr99,
// WeightESS, Stage1Sims and TotalSims, then of the distortion mean and,
// for G-C/G-S, every Gibbs sample coordinate in order. The digests were recorded on amd64 by running
// this test with placeholder digests and copying each one from the
// failure message. A change that must not move an estimate keeps every
// digest; one that moves them on purpose records new digests here and
// says so in CHANGES.md.
func TestEstimateBitsPinned(t *testing.T) {
	// The Go spec lets a compiler fuse x*y + z into one rounding, which
	// moves low bits of the solves; amd64 never fuses.
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, tc := range []struct {
		method Method
		digest string
	}{
		{MC, "059fb9de70eac220769092b8fc7500199547f8b417c8a3af11415d4021b183e4"},
		{MIS, "beb232aaffc9f00084457a67d62754c61f6fcc0c367a9e5c1c3b9fd61f02cdd9"},
		{MNIS, "15f38dbc704d114254e2504d44712c6c8f12bcea74e395c530a16e4a11beadf8"},
		{GC, "123280fdd43a01f9b2158dc87b5a39efc92a1db1bead7d3ce90b379ccc2fc150"},
		{GS, "c91429d3babfce75e3efa4b658687fa99c4c955a162bae80d54feded770c9da4"},
		{Blockade, "bd53296a7bfce2f1c0259cd58190c46ea5f9f3499c6ca7a8cf76fc9e3dba11aa"},
		{Subset, "f1d100c3159f0d3a95196a27a1852a3da323d20accf38527e86147330bbc0aa1"},
	} {
		t.Run(string(tc.method), func(t *testing.T) {
			t.Parallel()
			res, err := EstimateContext(context.Background(), ReadCurrentWorkload(), Options{
				Method: tc.method, K: 200, N: 2000, Seed: 3, Workers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var b [8]byte
			put := func(u uint64) {
				binary.LittleEndian.PutUint64(b[:], u)
				h.Write(b[:])
			}
			for _, v := range []float64{res.Pf, res.StdErr, res.RelErr99, res.WeightESS} {
				put(math.Float64bits(v))
			}
			put(uint64(res.Stage1Sims))
			put(uint64(res.TotalSims))
			for _, v := range res.DistortionMean {
				put(math.Float64bits(v))
			}
			for _, x := range res.GibbsSamples {
				for _, v := range x {
					put(math.Float64bits(v))
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Errorf("Pf %v RelErr99 %v, %d Gibbs samples, %d sims: digest %s, want %s",
					res.Pf, res.RelErr99, len(res.GibbsSamples), res.TotalSims, got, tc.digest)
			}
		})
	}
}
