package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro"
	"repro/internal/gibbs"
	"repro/internal/mc"
	"repro/internal/model"
	"repro/internal/stat"
	"repro/internal/telemetry"
)

// workload is one benchmark input set. BENCHMARK.json and README.md give
// the reason each one exists: the three *-target workloads stress the
// sequential Gibbs chain on three circuit kernels (cheap DC, DC sweep,
// transient), rc-gs-bulk moves the time into the parallel stage 2, and
// serve-rc wraps short non-Gibbs jobs in the HTTP service.
type workload struct {
	name string
	// metric is the built-in circuit metric the runs estimate on.
	metric string
	// k is the Gibbs chain length; n is the stage-2 sample count, or its
	// cap when target > 0 (run until RelErr99 ≤ target). For serve
	// workloads, n is the request's N and the method is MNIS.
	k, n   int
	target float64
	serve  bool
	// parallel marks workloads whose time is mostly spent on every core
	// (the evaluation pool, or the service's concurrent clients) rather
	// than in one sequential chain; it sets how host speed is sampled.
	parallel bool
	// pinStart skips the Algorithm 4 start-point search: every run starts
	// its chain from the point the search finds on pinSeed. On access the
	// search fails for about one seed in ten (38 of seeds 1..400), which
	// would make the workload fail operations.
	pinStart bool
	// runCost is the nominal seconds of one run (one served request) at
	// the baseline commit on the reference box. The run count is
	// -seconds over it, so the work, and with it every count, is the same
	// on every commit for a given seed and -seconds.
	runCost float64
}

var workloads = []workload{
	{name: "rc-gs-target", metric: "readcurrent", k: 1000, n: 400_000, target: 0.1, runCost: 0.3},
	{name: "rnm-gs-target", metric: "rnm", k: 1000, n: 400_000, target: 0.1, runCost: 3},
	{name: "access-gs-target", metric: "access", k: 1000, n: 400_000, target: 0.1, pinStart: true, runCost: 1.7},
	{name: "rc-gs-bulk", metric: "readcurrent", k: 1000, n: 200_000, parallel: true, runCost: 1.5},
	{name: "serve-rc", metric: "readcurrent", n: 4000, serve: true, parallel: true, runCost: 0.025},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) runs(seconds float64) int {
	return max(1, int(math.Round(seconds/w.runCost)))
}

// options are the estimator options of run seed s; start pins the chain's
// starting point (nil runs the start-point search).
func (w workload) options(s int64, start []float64) repro.Options {
	return repro.Options{
		Method: repro.GS, K: w.k, N: w.n, Target: w.target, Seed: s,
		Workers: runtime.NumCPU(), StartPoint: start,
	}
}

// pinSeed seeds the start-point search of pinStart workloads.
const pinSeed = 1

// startPoint returns the pinned starting point of a pinStart workload,
// or nil.
func (w workload) startPoint(ctx context.Context, metric repro.Metric) ([]float64, error) {
	if !w.pinStart {
		return nil, nil
	}
	start, err := model.FindFailurePointContext(ctx, metric, &model.StartOptions{}, rand.New(rand.NewSource(pinSeed)))
	if err != nil {
		return nil, fmt.Errorf("pinned start point: %w", err)
	}
	return start, nil
}

// goldenPf holds the frozen reference Pf per circuit metric: a long G-S
// run on readcurrent (K=3000, N=200000), validated against 20M samples of
// brute-force Monte Carlo. It is not independent of the method it judges.
var goldenPf = map[string]float64{"readcurrent": 2.737839e-6}

// minStage2 mirrors the floor repro applies to until-target stage 2 runs;
// the bit-identity check of the reassembly catches any drift.
const minStage2 = 500

// Set-up is repeated and setup_s is the median. One set-up takes well
// under a millisecond, so a burst of repetitions fits inside one host
// hiccup; setupReps run up front and setupRepsPerRun more before every
// run, spreading the samples over the whole pass.
const (
	setupReps       = 11
	setupRepsPerRun = 4
)

// setUpMetric builds the circuit metric and evaluates it once at the
// nominal point, which builds its solver engine and warm-start anchors.
// It does so reps times and returns each set-up's time and the last
// metric.
func setUpMetric(name string, reps int) ([]float64, repro.Metric, error) {
	times := make([]float64, 0, reps)
	var m repro.Metric
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		if m, err = repro.WorkloadByName(name); err != nil {
			return nil, nil, err
		}
		m.Value(make([]float64, m.Dim()))
		times = append(times, since(t0))
	}
	return times, m, nil
}

// checkRun applies the per-run output checks and reports whether the run
// passed them.
func (m *measurement) checkRun(w workload, seed int64, res *repro.Result, err error) bool {
	var problem string
	switch {
	case err != nil:
		problem = err.Error()
	case !(res.Pf > 0 && res.Pf < 1):
		problem = fmt.Sprintf("Pf %v outside (0,1)", res.Pf)
	case w.target > 0 && !(res.RelErr99 <= w.target):
		problem = fmt.Sprintf("RelErr99 %v above the target %v", res.RelErr99, w.target)
	case w.target > 0 && res.N >= w.n:
		problem = fmt.Sprintf("stage 2 hit its cap of %d samples", w.n)
	}
	if problem != "" {
		m.fail("%s seed %d: %s", w.name, seed, problem)
		return false
	}
	return true
}

// missesGolden reports whether the run's 99% interval excludes the
// metric's golden Pf; ok is false when the metric has none.
func missesGolden(metric string, res *repro.Result) (miss, ok bool) {
	g, ok := goldenPf[metric]
	if !ok {
		return false, false
	}
	return math.Abs(res.Pf-g) > res.RelErr99*res.Pf, true
}

// peakRSSMiB is the process's peak resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measureEstimator is the untraced pass of an estimator workload: runs
// EstimateContext calls on seeds seed..seed+runs-1, timing each.
func measureEstimator(ctx context.Context, w workload, seed int64, runs int, log io.Writer) (*measurement, error) {
	m := newMeasurement(endToEnd, log)
	speed := newHostSpeed(w.parallel)
	n := samplesFor(w.runCost)
	speed.sample(n)
	setups, metric, err := setUpMetric(w.metric, setupReps)
	if err != nil {
		return nil, err
	}
	start, err := w.startPoint(ctx, metric)
	if err != nil {
		return nil, err
	}
	var walls, sims, rates []float64
	misses, judged := 0, 0
	p := newPace(float64(runs) * w.runCost)
	for i := 0; i < runs; i++ {
		if !p.next() {
			m.info["stopped_early"] = i
			break
		}
		opts := w.options(seed+int64(i), start)
		// Sampling collects the previous run's garbage, so no collection
		// of it runs during the set-ups either.
		speed.sample(n)
		more, _, err := setUpMetric(w.metric, setupRepsPerRun)
		if err != nil {
			return nil, err
		}
		setups = append(setups, more...)
		runtime.GC()
		t0 := time.Now()
		res, err := repro.EstimateContext(ctx, metric, opts)
		wall := since(t0)
		m.Attempted++
		if !m.checkRun(w, opts.Seed, res, err) {
			continue
		}
		walls = append(walls, wall)
		sims = append(sims, float64(res.TotalSims))
		rates = append(rates, float64(res.TotalSims)/wall)
		if miss, ok := missesGolden(w.metric, res); ok {
			judged++
			if miss {
				misses++
			}
		}
	}
	k := speed.scale()
	m.set("setup_s", median(setups)*k)
	m.set("latency_p50_s", median(walls)*k)
	m.set("sims_per_run", median(sims))
	m.set("sims_per_s", median(rates)/k)
	m.set("peak_rss_mb", peakRSSMiB())
	m.setSpeed(speed)
	m.info["latency_p50_wall_s"] = median(walls)
	if judged > 0 {
		m.info["ci_misses"] = misses
		m.info["ci_miss_rate"] = float64(misses) / float64(judged)
	}
	return m, nil
}

// stages accumulates reassembled G-S runs, split the way the library's
// pipeline is: the Algorithm 4 start-point search (model), the spherical
// Gibbs chain, the distortion fit and the importance-sampling stage 2.
// Circuit time is what the shim measured inside each stage.
type stages struct {
	model, chain, fit, stage2 float64
	modelCircuit              float64 // scalar circuit seconds in the model search
	chainCircuit              float64 // scalar circuit seconds in the chain
	stage2Circuit             float64 // batch circuit seconds, summed over workers
	modelSims, chainSims      int64
	stage2Sims                int64
	samples, failures, n      int
}

// reassemble reruns a G-S estimate from the library's public stage
// functions with the seed and the single shared rng repro.EstimateContext
// uses, recording each stage as a child span of parent and adding its
// time and counts to st.
func reassemble(ctx context.Context, sh *shim, opts repro.Options, parent *telemetry.Span, st *stages) (mc.Result, int64, error) {
	counter := mc.NewCounter(sh)
	rng := rand.New(rand.NewSource(opts.Seed))
	stage := func(name string, f func() error) (float64, circuit, error) {
		span := parent.Child(name)
		c0 := sh.stats.snapshot()
		t0 := time.Now()
		err := f()
		d, c := since(t0), sh.stats.snapshot().minus(c0)
		span.SetAttr("sims", c.sims())
		span.SetAttr("circuit_s", c.seconds())
		span.End()
		return d, c, err
	}

	start := opts.StartPoint
	if start == nil {
		d, c, err := stage("model", func() (err error) {
			start, err = model.FindFailurePointContext(ctx, counter, &model.StartOptions{UseQuadratic: opts.Quadratic}, rng)
			return err
		})
		st.model, st.modelCircuit, st.modelSims = st.model+d, st.modelCircuit+c.seconds(), st.modelSims+c.sims()
		if err != nil {
			return mc.Result{}, 0, fmt.Errorf("start point: %w", err)
		}
	}

	var samples [][]float64
	d, c, err := stage("chain", func() (err error) {
		samples, err = gibbs.SphericalChainContext(ctx, counter, start, opts.K, nil, rng)
		return err
	})
	st.chain, st.chainCircuit, st.chainSims = st.chain+d, st.chainCircuit+c.seconds(), st.chainSims+c.sims()
	st.samples += len(samples)
	if err != nil {
		return mc.Result{}, 0, fmt.Errorf("chain: %w", err)
	}

	var g *stat.MVNormal
	d, _, err = stage("fit", func() (err error) {
		g, err = gibbs.FitDistortion(samples)
		return err
	})
	st.fit += d
	if err != nil {
		return mc.Result{}, 0, fmt.Errorf("fit: %w", err)
	}

	var res mc.Result
	ev := mc.NewEvaluator(counter, opts.Workers)
	d, c, err = stage("stage2", func() (err error) {
		if opts.Target > 0 {
			res, err = mc.ImportanceSampleUntilContext(ctx, ev, g, opts.Target, minStage2, opts.N, rng)
		} else {
			res, err = mc.ImportanceSampleContext(ctx, ev, g, opts.N, rng, 0)
		}
		return err
	})
	st.stage2, st.stage2Circuit, st.stage2Sims = st.stage2+d, st.stage2Circuit+c.seconds(), st.stage2Sims+c.sims()
	st.failures, st.n = st.failures+res.Failures, st.n+res.N
	if err != nil {
		return mc.Result{}, 0, fmt.Errorf("stage 2: %w", err)
	}
	return res, counter.Count(), nil
}

// sameBits reports whether two estimates agree bit for bit on Pf,
// RelErr99 and the simulation count.
func sameBits(a *repro.Result, pf, relErr float64, sims int64) bool {
	return math.Float64bits(a.Pf) == math.Float64bits(pf) &&
		math.Float64bits(a.RelErr99) == math.Float64bits(relErr) &&
		a.TotalSims == sims
}

// maxGlueShare bounds the share of a reassembled run's wall spent
// outside the four timed stage calls.
const maxGlueShare = 0.05

// traceEstimator is the traced pass of an estimator workload. Each run
// executes the estimate three times on the same seed, each on a metric of
// its own: bare (for the tracing overhead); through a timing shim with
// spice telemetry (the run wall, its stage times as the library reports
// them, and circuit totals); and reassembled from public stage calls
// through a second shim, which must reproduce the estimate bit for bit
// and splits each stage into layers.
func traceEstimator(ctx context.Context, w workload, seed int64, runs int, out string, log io.Writer) (*measurement, error) {
	m := newMeasurement(perLayer, log)
	var (
		metrics [3]repro.Metric // bare, shimmed estimate, reassembly
		err     error
	)
	for i := range metrics {
		if _, metrics[i], err = setUpMetric(w.metric, 1); err != nil {
			return nil, err
		}
	}
	bare := metrics[0]
	est, err := newShim(metrics[1], &circuitStats{})
	if err != nil {
		return nil, err
	}
	re, err := newShim(metrics[2], &circuitStats{})
	if err != nil {
		return nil, err
	}
	start, err := w.startPoint(ctx, bare)
	if err != nil {
		return nil, err
	}
	reg := telemetry.New()
	est.SetTelemetry(reg)
	tr := telemetry.NewTrace()
	workers := float64(runtime.NumCPU())
	speed := newHostSpeed(w.parallel)

	var (
		bareWall, wall, stage1, stage2 float64
		reWall                         float64
		st                             stages
		ok                             int
	)
	// Each run executes three times, so its nominal length is three runs.
	p := newPace(float64(runs) * 3 * w.runCost)
	for i := 0; i < runs; i++ {
		if !p.next() {
			m.info["stopped_early"] = i
			break
		}
		opts := w.options(seed+int64(i), start)
		m.Attempted++
		speed.sample(samplesFor(w.runCost))
		runtime.GC()
		t0 := time.Now()
		plain, err := repro.EstimateContext(ctx, bare, opts)
		plainWall := since(t0)
		if !m.checkRun(w, opts.Seed, plain, err) {
			continue
		}

		span := tr.StartSpan(nil, "run")
		span.SetAttr("seed", opts.Seed)
		runtime.GC()
		estSpan := span.Child("estimate")
		t0 = time.Now()
		traced, err := repro.EstimateContext(ctx, est, opts)
		runWall := since(t0)
		estSpan.End()
		if !m.checkRun(w, opts.Seed, traced, err) {
			span.End()
			continue
		}
		if !sameBits(traced, plain.Pf, plain.RelErr99, plain.TotalSims) {
			m.fail("%s seed %d: the timing shim changed the estimate", w.name, opts.Seed)
			span.End()
			continue
		}

		runtime.GC()
		reSpan := span.Child("reassembly")
		t0 = time.Now()
		res, sims, err := reassemble(ctx, re, opts, reSpan, &st)
		partsWall := since(t0)
		reSpan.End()
		span.SetAttr("pf", traced.Pf)
		span.End()
		switch {
		case err != nil:
			m.fail("%s seed %d: reassembly: %v", w.name, opts.Seed, err)
			continue
		case !sameBits(traced, res.Pf, res.RelErr99, sims):
			m.fail("%s seed %d: reassembly gave Pf %v RelErr99 %v sims %d, the estimate Pf %v RelErr99 %v sims %d",
				w.name, opts.Seed, res.Pf, res.RelErr99, sims, traced.Pf, traced.RelErr99, traced.TotalSims)
			continue
		}
		ok++
		bareWall += plainWall
		wall += runWall
		stage1 += traced.Stage1Seconds
		stage2 += traced.Stage2Seconds
		reWall += partsWall
	}
	if ok == 0 {
		return m, nil
	}
	perRun := func(v int64) float64 { return float64(v) / float64(ok) }
	k := speed.scale()
	whole := est.stats.snapshot()
	m.set("sram.scalar_us_per_sim", 1e6*k*whole.scalarS/float64(whole.scalarSims))
	m.set("sram.batch_us_per_sim", 1e6*k*whole.batchS/float64(whole.batchSims))
	m.set("sram.scalar_sims", perRun(whole.scalarSims))
	m.set("sram.batch_sims", perRun(whole.batchSims))
	m.set("sram.batch_calls", perRun(whole.batchCalls))
	readSpice(reg).report(m, whole.sims())
	m.set("model.sims", perRun(st.modelSims))
	m.set("gibbs.chain_sims", perRun(st.chainSims))
	m.set("gibbs.sims_per_sample", float64(st.chainSims)/float64(st.samples))
	m.set("mc.stage2_sims", perRun(st.stage2Sims))
	m.set("mc.fail_frac", float64(st.failures)/float64(st.n))
	m.set("mc.pool_util", st.stage2Circuit/(st.stage2*workers))
	m.set("jobs.cache_hits", 0)
	m.set("trace.overhead", wall/bareWall-1)

	// The estimate's wall splits, within the same call, into its two
	// stages as Result reports them and repro's own time around them
	// (validation, dispatch, the run report). Repeated executions of one
	// run differ by up to a fifth on a busy 2-CPU box, so the reassembled
	// runs only split each stage into layers, in the proportions they
	// measured.
	in1 := stage1 / (st.model + st.chain + st.fit)
	in2 := stage2 / st.stage2
	m.setShares(wall, map[string]float64{
		"sram.self_share":   in1*(st.modelCircuit+st.chainCircuit) + in2*st.stage2Circuit/workers,
		"model.self_share":  in1 * (st.model - st.modelCircuit),
		"gibbs.self_share":  in1 * (st.chain - st.chainCircuit),
		"gibbs.fit_share":   in1 * st.fit,
		"mc.self_share":     in2 * (st.stage2 - st.stage2Circuit/workers),
		"repro.self_share":  wall - stage1 - stage2,
		"jobs.self_share":   0,
		"client.self_share": 0,
	})
	if glue := reWall - (st.model + st.chain + st.fit + st.stage2); glue > maxGlueShare*reWall {
		m.reject("%s: the reassembled stages cover %.1f%% of its wall, under %.0f%%",
			w.name, 100*(reWall-glue)/reWall, 100*(1-maxGlueShare))
	}
	m.setSpeed(speed)
	m.info["traced_runs"] = ok
	m.info["run_wall_s"] = wall
	return m, writeTrace(tr, out, w.name, seed, m)
}

// setShares sets each layer's self time as a share of wall.
func (m *measurement) setShares(wall float64, self map[string]float64) {
	for name, s := range self {
		m.set(name, s/wall)
	}
}

// writeTrace writes the pass's spans as Chrome trace JSON into out.
func writeTrace(tr *telemetry.Trace, out, name string, seed int64, m *measurement) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(out, fmt.Sprintf("trace-%s-%d.json", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	m.info["trace_file"] = path
	return nil
}
