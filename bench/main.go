// Command bench is the repository benchmark. It times the estimation
// library and its serving path from the outside, through public calls
// only, and checks every result it times.
//
// One workload in one process, as BENCHMARK.json's command runs it:
//
//	bash bench/run.sh --workload rc-gs-target --seed 1 --seconds 15 --trace 0
//
// prints the end-to-end metrics (with --trace 1, the per-layer metrics of
// a separate traced pass) as a JSON object on its last line and exits 1
// when any check failed. Without --workload it runs every workload in a
// child process of its own, -passes untraced passes and one traced pass,
// and writes <out>/results.json:
//
//	bash bench/run.sh --seed 1 --out results
//
// -compare prints per-workload medians and quartiles of two such files
// and flags each end-to-end metric that worsened beyond its bound:
//
//	bash bench/run.sh -compare bench/baseline.json results/results.json
//
// See bench/README.md for the workloads, the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units with their direction and bound; bench_test
// checks that the two agree.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced pass, the numbers a user of
// the library or the service waits on.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_s", "s"},
	{"sims_per_run", "sims"},
	{"sims_per_s", "sims/s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced pass, named by module. The *_share
// metrics are layer self times over operation wall time and sum to 1.
var perLayer = []metricDef{
	{"sram.scalar_us_per_sim", "us"},
	{"sram.batch_us_per_sim", "us"},
	{"sram.scalar_sims", "sims"},
	{"sram.batch_sims", "sims"},
	{"sram.batch_calls", "count"},
	{"sram.self_share", "fraction"},
	{"spice.solves_per_sim", "count"},
	{"spice.newton_iters_per_solve", "count"},
	{"spice.warm_hit_rate", "fraction"},
	{"spice.fallback_total", "count"},
	{"spice.unconverged_total", "count"},
	{"model.sims", "sims"},
	{"model.self_share", "fraction"},
	{"gibbs.chain_sims", "sims"},
	{"gibbs.sims_per_sample", "sims"},
	{"gibbs.self_share", "fraction"},
	{"gibbs.fit_share", "fraction"},
	{"mc.stage2_sims", "sims"},
	{"mc.fail_frac", "fraction"},
	{"mc.pool_util", "fraction"},
	{"mc.self_share", "fraction"},
	{"repro.self_share", "fraction"},
	{"jobs.self_share", "fraction"},
	{"jobs.cache_hits", "count"},
	{"client.self_share", "fraction"},
	{"trace.overhead", "fraction"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measurement collects one workload's result, its check failures and the
// informational numbers that are not metrics (printed on the line before
// the result).
type measurement struct {
	result
	defs []metricDef
	info map[string]any
	log  io.Writer
}

func newMeasurement(defs []metricDef, log io.Writer) *measurement {
	return &measurement{
		result: result{Correct: true, Metrics: map[string]metricValue{}},
		defs:   defs,
		info:   map[string]any{},
		log:    log,
	}
}

// fail records one failed operation.
func (m *measurement) fail(format string, args ...any) {
	m.Failed++
	m.Correct = false
	fmt.Fprintf(m.log, "check failed: "+format+"\n", args...)
}

// reject marks the whole workload incorrect without charging an
// operation (a check across runs rather than of one run).
func (m *measurement) reject(format string, args ...any) {
	m.Correct = false
	fmt.Fprintf(m.log, "check failed: "+format+"\n", args...)
}

// set stores a metric value under its catalogued unit.
func (m *measurement) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("bench: uncatalogued metric " + name)
}

// finish checks that every catalogued metric was measured and is finite.
func (m *measurement) finish() {
	if m.Attempted == 0 {
		m.reject("no operation attempted")
	}
	for _, d := range m.defs {
		v, ok := m.Metrics[d.name]
		switch {
		case !ok:
			m.reject("metric %s not measured", d.name)
			m.Metrics[d.name] = metricValue{Unit: d.unit}
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			m.reject("metric %s is %v", d.name, v.Value)
			m.Metrics[d.name] = metricValue{Unit: d.unit}
		}
	}
}

// write prints the info line and then the result line.
func (m *measurement) write(w io.Writer) error {
	info, err := json.Marshal(map[string]any{"info": m.info})
	if err != nil {
		return err
	}
	res, err := json.Marshal(m.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", info, res)
	return err
}

func main() {
	workload := flag.String("workload", "", "measure this workload in this process; empty runs every workload in a child process each")
	seed := flag.Int64("seed", 1, "seed base: run i of a workload uses seed+i")
	seconds := flag.Float64("seconds", 0, "seconds each workload measures at the baseline commit, which fixes its run count (0: BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced pass, 0 end-to-end metrics")
	out := flag.String("out", "bench-out", "directory for Chrome traces and a full run's results.json")
	passes := flag.Int("passes", 2, "untraced passes of a full run, before its traced pass")
	compare := flag.Bool("compare", false, "compare two results files: -compare base.json change.json")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, *workload, *seed, *seconds, *trace, *out, *passes, *compare)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		stop()
		os.Exit(1)
	}
}

// errChecks reports a run whose output checks failed; its result line
// has been printed.
var errChecks = errors.New("output checks failed")

func run(ctx context.Context, workload string, seed int64, seconds float64, trace int, out string, passes int, compare bool) error {
	if compare {
		return runCompare(os.Stdout, flag.Args())
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		s, err := loadSpec()
		if err != nil {
			return err
		}
		seconds = float64(s.RunSeconds)
	}
	if workload == "" {
		return runAll(ctx, seed, seconds, passes, out)
	}
	w, err := workloadByName(workload)
	if err != nil {
		return err
	}
	m, err := measure(ctx, w, seed, w.runs(seconds), trace == 1, out, os.Stderr)
	if err != nil {
		return err
	}
	if err := m.write(os.Stdout); err != nil {
		return err
	}
	if !m.Correct {
		return errChecks
	}
	return nil
}

// measure runs one workload's untraced or traced pass.
func measure(ctx context.Context, w workload, seed int64, runs int, traced bool, out string, log io.Writer) (*measurement, error) {
	var (
		m   *measurement
		err error
	)
	switch {
	case w.serve && traced:
		// The traced serving pass sends its request sequence twice.
		runs = max(20, runs/2)
		m, err = traceServe(ctx, w, seed, runs, out, log)
	case w.serve:
		m, err = measureServe(ctx, w, seed, runs, log)
	case traced:
		// Each traced run executes the estimate three times (bare, through
		// the shim, and reassembled); a third of the runs keeps the pass
		// about as long as an untraced one.
		runs = max(1, (runs+2)/3)
		m, err = traceEstimator(ctx, w, seed, runs, out, log)
	default:
		m, err = measureEstimator(ctx, w, seed, runs, log)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	m.info["workload"] = w.name
	m.info["seeds"] = []int64{seed, seed + int64(runs) - 1}
	m.finish()
	return m, nil
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root, found as the
// working directory or its parent (the benchmark's own directory).
func loadSpec() (*spec, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		b, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("reading BENCHMARK.json: %w", lastErr)
}
