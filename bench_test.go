package repro

// One benchmark per table/figure of the paper (see DESIGN.md §4), plus
// the ablation benches for the design decisions DESIGN.md §5 calls out
// and microbenchmarks of the substrates. The experiment benches run
// budget-scaled versions of cmd/experiments (full-scale regeneration is
// `go run ./cmd/experiments all`); custom metrics report the estimated
// failure probability (Pf_e-7, in 1e-7 units) and the simulation cost
// (sims/op) next to wall-clock time.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/baselines"
	"repro/internal/gibbs"
	"repro/internal/linalg"
	"repro/internal/mc"
	"repro/internal/model"
	"repro/internal/sram"
	"repro/internal/stat"
	"repro/internal/surrogate"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// benchMethod runs one scaled method configuration and reports Pf and
// simulation cost.
func benchMethod(b *testing.B, metric mc.Metric, method Method, k, n int) {
	b.Helper()
	var pf float64
	var sims int64
	for i := 0; i < b.N; i++ {
		counter := mc.NewCounter(metric)
		rng := rand.New(rand.NewSource(int64(i) + 1))
		switch method {
		case MIS:
			r, err := baselines.MISContext(context.Background(), counter, baselines.MISOptions{Stage1: k, N: n}, rng)
			if err != nil {
				b.Fatal(err)
			}
			pf = r.Pf
		case MNIS:
			r, err := baselines.MNISContext(context.Background(), counter, baselines.MNISOptions{
				Start: &model.StartOptions{TrainN: k}, N: n,
			}, rng)
			if err != nil {
				b.Fatal(err)
			}
			pf = r.Pf
		case GC, GS:
			coord := gibbs.Cartesian
			if method == GS {
				coord = gibbs.Spherical
			}
			r, err := gibbs.TwoStageContext(context.Background(), counter, gibbs.TwoStageOptions{
				Coord: coord, K: 1 << 20, Stage1Budget: int64(k), N: n,
			}, rng)
			if err != nil {
				b.Fatal(err)
			}
			pf = r.Pf
		}
		sims = counter.Count()
	}
	b.ReportMetric(pf*1e7, "Pf_e-7")
	b.ReportMetric(float64(sims), "sims/op")
}

// BenchmarkTable1 regenerates a budget-scaled Table I: cost to analyze
// the RNM and WNM workloads per method.
func BenchmarkTable1(b *testing.B) {
	workloads := map[string]mc.Metric{
		"RNM": sram.RNMWorkload(),
		"WNM": sram.WNMWorkload(),
	}
	for _, w := range []string{"RNM", "WNM"} {
		for _, m := range Methods() {
			b.Run(w+"/"+string(m), func(b *testing.B) {
				benchMethod(b, workloads[w], m, 600, 600)
			})
		}
	}
}

// BenchmarkTable2 regenerates a budget-scaled Table II on the dual
// read-current workload: the Pf_e-7 metric exposes the paper's
// divergence (G-S ≈ 16, G-C ≈ 8 — one lobe).
func BenchmarkTable2(b *testing.B) {
	metric := sram.DualReadCurrentWorkload()
	for _, m := range Methods() {
		b.Run(string(m), func(b *testing.B) {
			benchMethod(b, metric, m, 2000, 4000)
		})
	}
	// Brute force at full golden scale takes minutes; this sub-bench
	// measures raw Monte Carlo throughput (the denominator of every
	// speedup claim) rather than the estimate itself.
	b.Run("brute-force-mc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mc.ParallelMCContext(context.Background(), metric, 100000, int64(i)+1, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(100000, "sims/op")
	})
}

// BenchmarkFig3 measures the 1-D spherical conditional sampling that
// Fig. 3 visualizes.
func BenchmarkFig3(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	alpha2 := 1.0
	for i := 0; i < b.N; i++ {
		a1 := stat.TruncNormSample(0, 8, rng.Float64())
		if _, err := gibbs.CartesianFromSpherical(1, []float64{a1, alpha2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates budget-scaled Fig. 6 convergence runs
// (estimate vs stage-2 samples) for the RNM workload.
func BenchmarkFig6(b *testing.B) {
	metric := sram.RNMWorkload()
	for _, m := range Methods() {
		b.Run(string(m), func(b *testing.B) {
			benchMethod(b, metric, m, 600, 1000)
		})
	}
}

// BenchmarkFig7 measures the relative-error bookkeeping of the Fig. 7
// series (the estimator pipeline with tracing enabled).
func BenchmarkFig7(b *testing.B) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 6}
	g, err := stat.NewMVNormal([]float64{3, 3}, linalg.Identity(2))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.ImportanceSampleContext(context.Background(), mc.NewEvaluator(lin, 0), g, 1000, rng, mc.TraceEvery(100)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8to11 measures the scatter generation behind Figs. 8–11:
// fitting a distortion from Gibbs samples and drawing labeled samples.
func BenchmarkFig8to11(b *testing.B) {
	metric := sram.ReadCurrentWorkload()
	counter := mc.NewCounter(metric)
	rng := rand.New(rand.NewSource(1))
	res, err := gibbs.TwoStageContext(context.Background(), counter, gibbs.TwoStageOptions{
		Coord: gibbs.Spherical, K: 200, N: 10,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := res.GNor.Sample(rng)
		_ = metric.Value(x)
	}
}

// BenchmarkFig12 regenerates budget-scaled Fig. 12 runs (dual
// read-current convergence) for the two Gibbs variants.
func BenchmarkFig12(b *testing.B) {
	metric := sram.DualReadCurrentWorkload()
	for _, m := range []Method{GC, GS} {
		b.Run(string(m), func(b *testing.B) {
			benchMethod(b, metric, m, 1500, 2000)
		})
	}
}

// BenchmarkFig13 measures the failure-region grid scan of Fig. 13.
func BenchmarkFig13(b *testing.B) {
	metric := sram.DualReadCurrentWorkload()
	x := make([]float64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x[0] = float64(i%20) * 0.4
		x[1] = float64((i/20)%20) * 0.4
		_ = metric.Value(x)
	}
}

// BenchmarkFig14 measures single Gibbs-chain coordinate updates from a
// fixed lobe start (the moves Fig. 14 illustrates).
func BenchmarkFig14(b *testing.B) {
	metric := sram.DualReadCurrentWorkload()
	start := []float64{0.3, 5.2}
	b.Run("G-C", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			if _, err := gibbs.CartesianChainContext(context.Background(), metric, start, 3, nil, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("G-S", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			if _, err := gibbs.SphericalChainContext(context.Background(), metric, start, 3, nil, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationCovariance contrasts the full mean+covariance fit of
// Algorithm 5 (D2) against a mean-only distortion built from the same
// Gibbs samples, on the correlated custom-cell-style metric where the
// covariance carries the information.
func BenchmarkAblationCovariance(b *testing.B) {
	lin := &surrogate.Linear{W: []float64{1, 1, 1, 1}, B: 10} // strongly correlated optimum
	run := func(b *testing.B, meanOnly bool) {
		var pf float64
		var sims int64
		for i := 0; i < b.N; i++ {
			counter := mc.NewCounter(lin)
			rng := rand.New(rand.NewSource(int64(i) + 1))
			start, err := model.FindFailurePointContext(context.Background(), counter, nil, rng)
			if err != nil {
				b.Fatal(err)
			}
			samples, err := gibbs.SphericalChainContext(context.Background(), counter, start, 400, nil, rng)
			if err != nil {
				b.Fatal(err)
			}
			var g *stat.MVNormal
			if meanOnly {
				mean, err := stat.MeanVec(samples)
				if err != nil {
					b.Fatal(err)
				}
				g, err = stat.NewMVNormal(mean, linalg.Identity(len(mean)))
				if err != nil {
					b.Fatal(err)
				}
			} else {
				g, err = gibbs.FitDistortion(samples)
				if err != nil {
					b.Fatal(err)
				}
			}
			r, err := mc.ImportanceSampleContext(context.Background(), mc.NewEvaluator(counter, 0), g, 3000, rng, 0)
			if err != nil {
				b.Fatal(err)
			}
			pf = r.Pf
			sims = counter.Count()
			b.ReportMetric(100*r.RelErr99, "relerr_%")
		}
		b.ReportMetric(pf/lin.ExactPf(), "Pf_ratio")
		b.ReportMetric(float64(sims), "sims/op")
	}
	b.Run("mean+cov", func(b *testing.B) { run(b, false) })
	b.Run("mean-only", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationStart contrasts the Algorithm 4 model-based starting
// point (D3) with a naive random-direction failure search.
func BenchmarkAblationStart(b *testing.B) {
	lin := &surrogate.Linear{W: []float64{2, 1, -1}, B: 9}
	exact := lin.ExactPf()
	run := func(b *testing.B, modelBased bool) {
		var ratio float64
		var sims int64
		for i := 0; i < b.N; i++ {
			counter := mc.NewCounter(lin)
			rng := rand.New(rand.NewSource(int64(i) + 1))
			var start []float64
			var err error
			if modelBased {
				start, err = model.FindFailurePointContext(context.Background(), counter, nil, rng)
			} else {
				// Naive: walk random directions until one fails.
				for {
					dir := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
					start, err = model.RefineAlongRay(counter, dir, 10, 8)
					if err == nil {
						break
					}
				}
			}
			if err != nil {
				b.Fatal(err)
			}
			res, err := gibbs.TwoStageContext(context.Background(), counter, gibbs.TwoStageOptions{
				Coord: gibbs.Spherical, K: 300, N: 2000, StartPoint: start,
			}, rng)
			if err != nil {
				b.Fatal(err)
			}
			ratio = res.Pf / exact
			sims = counter.Count()
		}
		b.ReportMetric(ratio, "Pf_ratio")
		b.ReportMetric(float64(sims), "sims/op")
	}
	b.Run("algorithm4", func(b *testing.B) { run(b, true) })
	b.Run("random-direction", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationBisections sweeps the refinement tolerance of
// Algorithm 3 (D4), each interval edge located to 1/2^Bisections of its
// bracket: accuracy of the interval endpoints against chain cost.
func BenchmarkAblationBisections(b *testing.B) {
	sh := &surrogate.Shell{M: 3, R: 4}
	exact := sh.ExactPf()
	for _, bis := range []int{3, 6, 12} {
		b.Run(map[int]string{3: "bis3", 6: "bis6", 12: "bis12"}[bis], func(b *testing.B) {
			var ratio float64
			var sims int64
			for i := 0; i < b.N; i++ {
				counter := mc.NewCounter(sh)
				rng := rand.New(rand.NewSource(int64(i) + 1))
				res, err := gibbs.TwoStageContext(context.Background(), counter, gibbs.TwoStageOptions{
					Coord: gibbs.Spherical, K: 300, N: 2000,
					Chain: &gibbs.Options{Bisections: bis},
				}, rng)
				if err != nil {
					b.Fatal(err)
				}
				ratio = res.Pf / exact
				sims = counter.Count()
			}
			b.ReportMetric(ratio, "Pf_ratio")
			b.ReportMetric(float64(sims), "sims/op")
		})
	}
}

// BenchmarkAblationEpsilon sweeps the spherical-start ε of eq. (32)
// (D5); the paper recommends 1e-3..1e-2.
func BenchmarkAblationEpsilon(b *testing.B) {
	arc := &surrogate.Arc{R: 4.2, HalfAngle: 2.8}
	exact := arc.ExactPf()
	// A fixed in-region start isolates the ε effect from starting-point
	// search noise.
	start := []float64{4.4, 0}
	for _, eps := range []float64{1e-3, 1e-2, 1e-1} {
		b.Run(map[float64]string{1e-3: "eps1e-3", 1e-2: "eps1e-2", 1e-1: "eps1e-1"}[eps], func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				counter := mc.NewCounter(arc)
				rng := rand.New(rand.NewSource(int64(i) + 1))
				res, err := gibbs.TwoStageContext(context.Background(), counter, gibbs.TwoStageOptions{
					Coord: gibbs.Spherical, K: 400, N: 3000,
					StartPoint: start,
					Chain:      &gibbs.Options{Epsilon: eps},
				}, rng)
				if err != nil {
					b.Fatal(err)
				}
				ratio = res.Pf / exact
			}
			b.ReportMetric(ratio, "Pf_ratio")
		})
	}
}

// BenchmarkAblationCoord is the D1 headline: the two chains on the
// two-lobe workload, at identical budgets.
func BenchmarkAblationCoord(b *testing.B) {
	metric := sram.DualReadCurrentWorkload()
	for _, m := range []Method{GC, GS} {
		b.Run(string(m), func(b *testing.B) {
			benchMethod(b, metric, m, 1500, 3000)
		})
	}
}

// --- Evaluation-engine benches ---

// BenchmarkStage2Workers measures stage-2 importance sampling on a
// SPICE-backed metric across pool sizes. On a multicore machine the
// workers=4 sub-bench should run at least ~2× faster than workers=1
// (DC solves dominate and parallelize cleanly); the estimates are
// bit-identical regardless, so the sweep doubles as a determinism
// check under benchmark load.
func BenchmarkStage2Workers(b *testing.B) {
	metric := sram.ReadCurrentWorkload()
	counter := mc.NewCounter(metric)
	setup := rand.New(rand.NewSource(1))
	fit, err := gibbs.TwoStageContext(context.Background(), counter, gibbs.TwoStageOptions{
		Coord: gibbs.Spherical, K: 200, N: 10,
	}, setup)
	if err != nil {
		b.Fatal(err)
	}
	g := fit.GNor
	var refPf float64
	for _, workers := range []int{1, 2, 4, 0} {
		name := map[int]string{1: "workers1", 2: "workers2", 4: "workers4", 0: "workersAll"}[workers]
		b.Run(name, func(b *testing.B) {
			ev := mc.NewEvaluator(metric, workers)
			var pf float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(7))
				r, err := mc.ImportanceSampleContext(context.Background(), ev, g, 2000, rng, 0)
				if err != nil {
					b.Fatal(err)
				}
				pf = r.Pf
			}
			if refPf == 0 {
				refPf = pf
			} else if pf != refPf {
				b.Fatalf("workers=%d changed the estimate: %v vs %v", workers, pf, refPf)
			}
			b.ReportMetric(pf*1e7, "Pf_e-7")
			b.ReportMetric(float64(2000*b.N)/b.Elapsed().Seconds(), "solves/sec")
		})
	}
}

// BenchmarkStage1Workers measures the Gibbs stage on the read noise
// margin, whose every probe is a DC transfer-curve sweep, at one and two
// workers. Its two default chains of 30 run in turn at one worker and
// at once at two, where a run takes as long as the longer chain. The
// samples are the same either way: the sweep fails if they or the
// stage-1 simulation count differ.
func BenchmarkStage1Workers(b *testing.B) {
	ctx := context.Background()
	metric := sram.RNMWorkload()
	start, err := model.FindFailurePointContext(ctx, metric, nil, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	var ref *gibbs.TwoStageResult
	for _, workers := range []int{1, 2} {
		b.Run(map[int]string{1: "workers1", 2: "workers2"}[workers], func(b *testing.B) {
			var res *gibbs.TwoStageResult
			for i := 0; i < b.N; i++ {
				r, _, err := gibbs.TwoStagePrefix(ctx, mc.NewCounter(metric), gibbs.TwoStageOptions{
					Coord: gibbs.Spherical, K: 60, N: 1, StartPoint: start, Workers: workers,
				}, rand.New(rand.NewSource(7)))
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			if ref == nil {
				ref = res
			} else if res.Stage1Sims != ref.Stage1Sims || !sameSamples(res.Samples, ref.Samples) {
				b.Fatalf("workers=%d changed the chain: %d stage-1 sims vs %d", workers, res.Stage1Sims, ref.Stage1Sims)
			}
			b.ReportMetric(float64(res.Stage1Sims), "sims/op")
		})
	}
}

// BenchmarkEvaluatorOverhead isolates the pool's scheduling cost on a
// near-free analytic metric — the worst case for parallel dispatch.
func BenchmarkEvaluatorOverhead(b *testing.B) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 6}
	g, err := stat.NewMVNormal([]float64{3, 3}, linalg.Identity(2))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "workers1", 4: "workers4"}[workers], func(b *testing.B) {
			ev := mc.NewEvaluator(lin, workers)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				if _, err := mc.ImportanceSampleContext(context.Background(), ev, g, 1000, rng, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTelemetryOverhead runs the same stage-2 importance sampling
// bare and with a live registry attached, on a near-free analytic metric
// so the atomic adds are the largest possible fraction of the work. The
// "bare" vs "instrumented" sub-bench ratio is the cost of leaving
// telemetry on; compare ns/op manually — CI only smoke-runs this
// (-benchtime 1x) and asserts the estimates match bit for bit, which is
// deterministic where a timing gate would be flaky.
func BenchmarkTelemetryOverhead(b *testing.B) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 6}
	g, err := stat.NewMVNormal([]float64{3, 3}, linalg.Identity(2))
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, reg *telemetry.Registry) float64 {
		ev := mc.NewEvaluator(lin, 0).WithTelemetry(reg)
		var pf float64
		for i := 0; i < b.N; i++ {
			// Fresh seed each iteration so the final Pf is independent of
			// b.N and the bare/instrumented comparison below is exact.
			rng := rand.New(rand.NewSource(7))
			r, err := mc.ImportanceSampleContext(context.Background(), ev, g, 1000, rng, 0)
			if err != nil {
				b.Fatal(err)
			}
			pf = r.Pf
		}
		return pf
	}
	var barePf, instPf float64
	b.Run("bare", func(b *testing.B) { barePf = run(b, nil) })
	b.Run("instrumented", func(b *testing.B) { instPf = run(b, telemetry.New()) })
	if barePf != instPf {
		b.Fatalf("telemetry changed the estimate: %v vs %v", instPf, barePf)
	}
}

// BenchmarkTraceOverhead prices the span-tracing layer on the two-stage
// flow. Three sub-benches: "disabled" (no registry at all — the span
// calls are nil no-ops), "registry" (live metrics, no trace), "traced"
// (full span tree recorded). Compare ns/op manually — disabled vs traced
// must stay within ~5%; CI smoke-runs this (-benchtime 1x) and asserts
// the estimates are bit-identical, which is deterministic where a timing
// gate would be flaky. The "span-disabled" sub-bench isolates one
// span start/attr/agg/end cycle against an enabled registry with no
// trace — it must report 0 allocs/op (the zero-cost-when-off claim).
func BenchmarkTraceOverhead(b *testing.B) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 6}
	run := func(b *testing.B, mk func() *telemetry.Registry) float64 {
		var pf float64
		for i := 0; i < b.N; i++ {
			res, err := Estimate(lin, Options{Method: GS, K: 150, N: 1500, Seed: 7, Telemetry: mk()})
			if err != nil {
				b.Fatal(err)
			}
			pf = res.Pf
		}
		return pf
	}
	var bare, traced float64
	b.Run("disabled", func(b *testing.B) {
		bare = run(b, func() *telemetry.Registry { return nil })
	})
	b.Run("registry", func(b *testing.B) {
		run(b, telemetry.New)
	})
	b.Run("traced", func(b *testing.B) {
		traced = run(b, func() *telemetry.Registry {
			reg := telemetry.New()
			reg.SetTrace(telemetry.NewTrace())
			return reg
		})
	})
	if bare != traced {
		b.Fatalf("tracing changed the estimate: %v vs %v", traced, bare)
	}
	b.Run("span-disabled", func(b *testing.B) {
		reg := telemetry.New() // enabled registry, no trace attached
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spanCtx, span := telemetry.StartSpan(ctx, reg, "bench")
			span.SetAttr("i", i)
			_, child := telemetry.StartSpan(spanCtx, reg, "child")
			child.End()
			span.End()
		}
	})
}

// --- Substrate microbenchmarks ---

// BenchmarkSpiceOperatingPoint measures a single cold 6-T cell DC solve
// (netlist build included) — the paper's unit of cost.
func BenchmarkSpiceOperatingPoint(b *testing.B) {
	cell := sram.Default90nm()
	var dvth [sram.NumTransistors]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cell.StaticNodeVoltages(sram.ReadConfig, dvth); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetricRNM measures one full read-noise-margin extraction (two
// butterfly sweeps + eye geometry).
func BenchmarkMetricRNM(b *testing.B) {
	m := sram.RNMWorkload()
	x := make([]float64, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Value(x)
	}
}

// BenchmarkMetricWNM measures one write-trip bisection.
func BenchmarkMetricWNM(b *testing.B) {
	m := sram.WNMWorkload()
	x := make([]float64, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Value(x)
	}
}

// BenchmarkNormQuantile measures the inverse-transform primitive.
func BenchmarkNormQuantile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = stat.NormQuantile(float64(i%1000)/1000.0*0.999 + 0.0005)
	}
}

// BenchmarkChiQuantile measures the radius-conditional primitive.
func BenchmarkChiQuantile(b *testing.B) {
	c := stat.Chi{K: 6}
	for i := 0; i < b.N; i++ {
		_ = c.Quantile(float64(i%1000)/1000.0*0.999 + 0.0005)
	}
}

// BenchmarkGibbsSample measures the cost of one Gibbs coordinate update
// (bracketing + refinement + truncated draw) on a cheap analytic metric,
// whose probes cost nanoseconds, and per 200-update spherical chain on
// readcurrent, whose probes are DC solves that cost more the deeper they
// go.
func BenchmarkGibbsSample(b *testing.B) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 5}
	b.Run("cartesian", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			if _, err := gibbs.CartesianChainContext(context.Background(), lin, []float64{3, 3}, 1, nil, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("spherical", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			if _, err := gibbs.SphericalChainContext(context.Background(), lin, []float64{3, 3}, 1, nil, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	// One K = 200 chain (one chain, the caller's goroutine) from
	// readcurrent's Algorithm 4 point, found before the timer starts.
	// Every simulation but the chain's start check is an interval-search
	// probe; warm fallbacks are the solves whose warm start failed and
	// fell back to the cold path.
	b.Run("readcurrent-spherical", func(b *testing.B) {
		const k = 200
		ctx := context.Background()
		metric := sram.ReadCurrentWorkload()
		start, err := model.FindFailurePointContext(ctx, metric, nil, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		reg := telemetry.New()
		metric.SetTelemetry(reg)
		falls := reg.Scope(wire.ScopeSpice).Counter("warm_fallback_total")
		falls0 := falls.Value()
		var sims int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			counter := mc.NewCounter(metric)
			if _, err := gibbs.SphericalChainContext(ctx, counter, start, k, &gibbs.Options{Chains: 1}, rand.New(rand.NewSource(1))); err != nil {
				b.Fatal(err)
			}
			sims += counter.Count()
		}
		updates := float64(k * b.N)
		b.ReportMetric(float64(sims-int64(b.N))/updates, "probes/update")
		b.ReportMetric(float64(falls.Value()-falls0)/updates, "warm_fallbacks/update")
	})
}
