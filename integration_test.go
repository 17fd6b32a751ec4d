package repro

// Integration tests: full pipelines across substrate boundaries — the
// circuit simulator feeding real metrics into every estimator, with
// cross-validation between independent estimates. Budgets are scaled so
// `go test .` stays fast; -short skips the slowest ones.

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/gibbs"
	"repro/internal/mc"
	"repro/internal/spice"
	"repro/internal/sram"
	"repro/internal/stat"
)

// The dual read-current workload has a grid-quadrature reference of
// ≈1.6e-6; G-S must land on it, and G-C must land on ≈ half of it (the
// single-lobe trap) — the paper's Table II contrast as a regression test.
func TestIntegrationDualReadTable2Shape(t *testing.T) {
	metric := DualReadCurrentWorkload()

	gs, err := Estimate(metric, Options{Method: GS, K: 1500, N: 6000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gc, err := Estimate(metric, Options{Method: GC, K: 1500, N: 6000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const reference = 1.59e-6 // 2·Φ(−4.8) − Φ(−4.8)², the calibrated L
	if math.Abs(gs.Pf-reference)/reference > 0.35 {
		t.Fatalf("G-S %v should track the reference %v", gs.Pf, reference)
	}
	ratio := gc.Pf / reference
	if ratio < 0.3 || ratio > 0.75 {
		t.Fatalf("G-C should report roughly one lobe (~0.5×): got ratio %.2f", ratio)
	}
}

// The run-report on the real 6-T cell must show a healthy run for both
// Gibbs variants: converged chain (split R-hat < 1.1) and live
// importance weights (weight ESS > 0).
func TestIntegrationRunReport6T(t *testing.T) {
	metric := ReadCurrentWorkload()
	for _, m := range []Method{GC, GS} {
		res, err := Estimate(metric, Options{Method: m, K: 600, N: 4000, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		rep := res.Report
		if rep == nil {
			t.Fatalf("%s: no run-report", m)
		}
		if rep.RHat == nil {
			t.Fatalf("%s: R-hat unavailable: %s", m, rep.RHatNote)
		}
		if *rep.RHat >= 1.1 {
			t.Fatalf("%s: split R-hat %.3f, want < 1.1 on the 6-T workload", m, *rep.RHat)
		}
		if rep.WeightESS <= 0 {
			t.Fatalf("%s: weight ESS %v, want > 0", m, rep.WeightESS)
		}
	}
}

// The Gibbs distortion must place its samples inside the real circuit's
// failure region.
func TestIntegrationGibbsSamplesFail(t *testing.T) {
	metric := sram.ReadCurrentWorkload()
	counter := mc.NewCounter(metric)
	rng := rand.New(rand.NewSource(4))
	res, err := gibbs.TwoStageContext(context.Background(), counter, gibbs.TwoStageOptions{
		Coord: gibbs.Spherical, K: 120, N: 10,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, s := range res.Samples {
		if metric.Value(s) >= 0 {
			bad++
		}
	}
	// The recovery scan may leave an occasional passing sample when an
	// arc interval misses; the bulk must fail.
	if frac := float64(bad) / float64(len(res.Samples)); frac > 0.05 {
		t.Fatalf("%.0f%% of Gibbs samples pass — chain is not tracking Ω", 100*frac)
	}
}

// The same cell built through the netlist parser and through the sram
// package must agree on the solved read state.
func TestIntegrationNetlistMatchesBuilder(t *testing.T) {
	ckt, err := spice.ParseNetlist(strings.NewReader(`
.model ndrv nmos vt0=0.32 kp=300u w=240n l=100n lambda=0.10 n=1.30
.model nacc nmos vt0=0.35 kp=300u w=130n l=100n lambda=0.10 n=1.30
.model pld  pmos vt0=0.33 kp=80u  w=120n l=100n lambda=0.12 n=1.35
Vdd vdd 0 1.0
Vwl wl 0 1.0
Vbl bl 0 1.0
Vblb blb 0 1.0
M1 q qb 0 0 ndrv
M2 qb q 0 0 ndrv
M3 bl wl q 0 nacc
M4 blb wl qb 0 nacc
M5 q qb vdd vdd pld
M6 qb q vdd vdd pld
`))
	if err != nil {
		t.Fatal(err)
	}
	op, err := ckt.SolveDC(&spice.DCOptions{InitialGuess: map[string]float64{"q": 0, "qb": 1}})
	if err != nil {
		t.Fatal(err)
	}
	cell := sram.Default90nm()
	q, qb, err := cell.StaticNodeVoltages(sram.ReadConfig, [sram.NumTransistors]float64{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(op.Voltage("q")-q) > 1e-6 || math.Abs(op.Voltage("qb")-qb) > 1e-6 {
		t.Fatalf("netlist (%v, %v) vs builder (%v, %v)",
			op.Voltage("q"), op.Voltage("qb"), q, qb)
	}
}

// Blockade through the facade on a circuit metric must agree with the
// importance-sampling estimate of the same (moderate) probability. A
// loosened read-current spec raises Pf so both estimators converge with
// small budgets.
func TestIntegrationBlockadeVsGS(t *testing.T) {
	if testing.Short() {
		t.Skip("moderately slow circuit integration")
	}
	cell := sram.FastRead90nm()
	metric := &sram.Metric{
		Cell: cell, Kind: sram.ReadCurrent, Spec: 42e-6,
		Which: []int{sram.M1, sram.M3}, Scale: 1e6,
	}
	counter := mc.NewCounter(metric)
	bl, err := baselines.BlockadeContext(context.Background(), counter, baselines.BlockadeOptions{
		Train: 600, N: 150000, TrainScale: 1.3,
	}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	gs, err := Estimate(metric, Options{Method: GS, K: 400, N: 4000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if bl.Pf <= 0 {
		t.Fatal("blockade found no failures")
	}
	if math.Abs(bl.Pf-gs.Pf)/gs.Pf > 0.5 {
		t.Fatalf("blockade %v vs G-S %v disagree", bl.Pf, gs.Pf)
	}
	// Blockade's reason to exist: far fewer sims than candidates.
	total := bl.TrainSims + bl.TailSims
	if total > int64(bl.N)/3 {
		t.Fatalf("blockade did not block: %d sims of %d candidates", total, bl.N)
	}
}

// The transient access-time workload must correlate with the static read
// current: cells ordered by current are inversely ordered by delay.
func TestIntegrationStaticDynamicConsistency(t *testing.T) {
	rc, access := sram.ReadCurrentWorkload(), sram.AccessTimeWorkload()
	cell := rc.Cell
	type pt struct{ x1, x3 float64 }
	pts := []pt{{0, 0}, {2, 1}, {4, 2}, {5, 4}}
	var lastI, lastT float64 = math.Inf(1), -1
	for _, p := range pts {
		var d [sram.NumTransistors]float64
		d[sram.M1] = cell.SigmaVth * p.x1
		d[sram.M3] = cell.SigmaVth * p.x3
		i, err := rc.Raw(d)
		if err != nil {
			t.Fatal(err)
		}
		at, err := access.Raw(d)
		if err != nil {
			t.Fatal(err)
		}
		if i >= lastI {
			t.Fatalf("read current should decrease along the weak path: %v -> %v", lastI, i)
		}
		if at <= lastT {
			t.Fatalf("access time should increase along the weak path: %v -> %v", lastT, at)
		}
		lastI, lastT = i, at
	}
}

// The importance-sampling identity: reweighting with the fitted distortion
// recovers the plain-MC estimate of a moderate-probability circuit event.
func TestIntegrationISIdentityOnCircuit(t *testing.T) {
	if testing.Short() {
		t.Skip("moderately slow circuit integration")
	}
	cell := sram.FastRead90nm()
	metric := &sram.Metric{
		Cell: cell, Kind: sram.ReadCurrent, Spec: 45e-6,
		Which: []int{sram.M1, sram.M3}, Scale: 1e6,
	} // Pf ~ 1e-3: plain MC feasible
	plain, err := mc.ParallelMCContext(context.Background(), metric, 40000, 6, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	counter := mc.NewCounter(metric)
	res, err := gibbs.TwoStageContext(context.Background(), counter, gibbs.TwoStageOptions{
		Coord: gibbs.Spherical, K: 300, N: 4000,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	tol := 4*plain.StdErr + 4*res.StdErr
	if math.Abs(plain.Pf-res.Pf) > tol {
		t.Fatalf("plain %v vs IS %v (tol %v)", plain.Pf, res.Pf, tol)
	}
	_ = stat.Z99
}
