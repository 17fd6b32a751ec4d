// Command sramfail estimates the failure rate of the built-in 6-T SRAM
// cell metrics with any of the library's estimators.
//
// Usage:
//
//	sramfail -metric rnm -method g-s -k 1000 -n 10000 -seed 1
//	sramfail -metric readcurrent -method mnis -n 10000
//	sramfail -metric wnm -method g-s -target 0.05 -n 200000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func main() {
	var (
		metricName = flag.String("metric", "rnm", "metric: "+strings.Join(repro.WorkloadNames(), ", "))
		methodName = flag.String("method", "g-s", "estimator: "+strings.Join(methodNames(), ", "))
		k          = flag.Int("k", 0, "first-stage budget (0 = method default)")
		n          = flag.Int("n", 10000, "second-stage samples (cap when -target is set)")
		target     = flag.Float64("target", 0, "stop when the 99% relative error reaches this (0 = fixed N)")
		seed       = flag.Int64("seed", 1, "RNG seed")
		quadratic  = flag.Bool("quadratic", false, "use a quadratic response surface for the starting point")
		workers    = flag.Int("workers", 0, "evaluation-pool workers for every method (0 = all cores)")
		mixture    = flag.Int("mixture", 0, "Gaussian-mixture components for the G-C/G-S distortion (0/1 = single Normal)")
		teleOut    = flag.String("telemetry", "", "write structured run events (JSONL) to this file")
		traceOut   = flag.String("trace", "", "write a span trace to this file (Chrome trace JSON, or JSONL with a .jsonl suffix)")
		reportOut  = flag.String("report", "", "write the statistical run-report (JSON) to this file")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics (Prometheus text) and /debug/pprof on this address during the run")
		stats      = flag.Bool("stats", false, "print the run-telemetry metric table after the run")
		watch      = flag.Bool("watch", false, "render live progress (stage, samples, running Pf, sims/s, ETA) as an in-place status line on stderr")
		remote     = flag.String("remote", "", "submit the job to this sramserverd base URL instead of estimating locally")
		distribute = flag.Bool("distribute", false, "with -remote: shard the job across the server's registered workers")
		idemKey    = flag.String("idempotency-key", "", "with -remote: Idempotency-Key for at-most-once submission")
		watchClu   = flag.Bool("watch-cluster", false, "with -remote: render the live fleet dashboard (GET /v1/cluster + global event stream) instead of submitting a job")
	)
	flag.Parse()

	if *watchClu {
		if *remote == "" {
			fatal(errors.New("-watch-cluster needs -remote (the dashboard reads the server's /v1/cluster)"))
		}
		watchCluster(*remote)
		return
	}
	if *remote != "" {
		runRemote(*remote, remoteJob{
			workload: *metricName, method: *methodName,
			k: *k, n: *n, target: *target, seed: *seed,
			quadratic: *quadratic, workers: *workers, mixture: *mixture,
			distribute: *distribute, idemKey: *idemKey, watch: *watch,
		})
		return
	}
	if *distribute {
		fatal(errors.New("-distribute needs -remote (local runs already use every core)"))
	}

	metric, err := repro.WorkloadByName(*metricName)
	if err != nil {
		fatal(err)
	}
	method, err := repro.ParseMethod(*methodName)
	if err != nil {
		fatal(err)
	}

	cli, err := telemetry.StartCLI(*teleOut, *traceOut, *debugAddr, *stats)
	if err != nil {
		fatal(err)
	}

	// -watch rides the same live event bus the server streams over SSE:
	// a registry (created on demand), a bus on it, and a renderer
	// goroutine turning "progress" events into one in-place status line.
	reg := cli.Registry
	var watchStop func()
	if *watch {
		if reg == nil {
			reg = telemetry.New()
		}
		watchStop = startWatch(reg)
	}

	// Ctrl-C cancels the run at the next evaluation chunk; a second
	// ctrl-C kills the process outright (NotifyContext stops catching
	// once cancelled). The estimate's spans nest under the trace's root.
	ctx, stop := signal.NotifyContext(cli.Context(context.Background()), os.Interrupt)
	defer stop()

	start := time.Now()
	res, err := repro.EstimateContext(ctx, metric, repro.Options{
		Method: method, K: *k, N: *n, Target: *target,
		Seed: *seed, Quadratic: *quadratic, Workers: *workers,
		Mixture: *mixture, Telemetry: reg,
	})
	if watchStop != nil {
		watchStop()
	}
	if errors.Is(err, context.Canceled) {
		cli.Close()
		fmt.Fprintf(os.Stderr, "sramfail: interrupted after %d simulations\n", res.TotalSims)
		os.Exit(130)
	}
	if err != nil {
		cli.Close()
		fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("metric            %s\n", *metricName)
	fmt.Printf("method            %s\n", method)
	fmt.Printf("failure rate      %.4g\n", res.Pf)
	if math.IsInf(res.RelErr99, 1) {
		fmt.Printf("relerr (99%% CI)   inf (no failures observed)\n")
	} else {
		fmt.Printf("relerr (99%% CI)   %.2f%%\n", 100*res.RelErr99)
	}
	fmt.Printf("failures          %d / %d stage-2 samples\n", res.Failures, res.N)
	fmt.Printf("simulations       stage1 %d + stage2 %d = %d\n",
		res.Stage1Sims, res.Stage2Sims, res.TotalSims)
	fmt.Printf("wall time         %v\n", elapsed.Round(time.Millisecond))
	if secs := elapsed.Seconds(); secs > 0 {
		fmt.Printf("solve throughput  %.0f sims/s\n", float64(res.TotalSims)/secs)
	}

	if rep := res.Report; rep != nil {
		fmt.Println()
		rep.WriteText(os.Stdout)
		if *reportOut != "" {
			f, err := os.Create(*reportOut)
			if err != nil {
				fatal(err)
			}
			if err := rep.WriteJSON(f); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}

	if cli.Registry != nil {
		fmt.Println()
		// The footer's throughput comes from the same "progress" scope
		// estimator that feeds the SSE streams and the server's status
		// JSON, so every surface agrees on the rate.
		if rate := cli.Registry.Scope(wire.ScopeProgress).Gauge("sims_per_sec").Value(); rate > 0 {
			fmt.Printf("stage throughput  %.0f samples/s (live estimator)\n\n", rate)
		}
		cli.Registry.WriteTable(os.Stdout)
	}
	if err := cli.Close(); err != nil {
		fatal(err)
	}
}

// methodNames lists every estimator's CLI spelling.
func methodNames() []string {
	var names []string
	for _, m := range repro.AllMethods() {
		names = append(names, m.String())
	}
	return names
}

// startWatch subscribes to reg's event bus (the -telemetry log bus, or
// a new one it installs) and starts the terminal renderer: each
// "progress" event overwrites one stderr status line.
// The returned stop function ends the stream, waits for the renderer,
// and finishes the line so the result table starts on a fresh row.
func startWatch(reg *telemetry.Registry) func() {
	bus := reg.Bus()
	if bus == nil {
		bus = telemetry.NewBus(0)
		reg.SetBus(bus)
	}
	sub := bus.Subscribe(256)
	done := make(chan struct{})
	go func() {
		defer close(done)
		wrote := false
		for ev := range sub.Events() {
			if ev.Name != wire.EvProgress {
				continue
			}
			fmt.Fprint(os.Stderr, progressLine(ev.Fields))
			wrote = true
		}
		if wrote {
			fmt.Fprint(os.Stderr, "\n")
		}
	}()
	return func() {
		sub.Close()
		<-done
	}
}

// progressLine renders one "progress" event as the -watch status line:
// stage, samples, running Pf with its 99% error once known, sims/s and
// ETA. It starts with \r and clear-to-end, so each line overwrites the
// last without leaving stale characters behind.
func progressLine(fields map[string]any) string {
	num := func(key string) float64 {
		v, _ := telemetry.NumField(fields, key)
		return v
	}
	stage, _ := fields["stage"].(string)
	line := fmt.Sprintf("\r\x1b[K%s %d/%d", stage, int(num("n")), int(num("total")))
	if pf, ok := telemetry.NumField(fields, "pf"); ok {
		line += fmt.Sprintf("  pf %.3g", pf)
		if re := num("relerr99"); !math.IsInf(re, 0) && re > 0 {
			line += fmt.Sprintf(" ±%.1f%%", 100*re)
		}
	}
	return line + fmt.Sprintf("  %.0f sims/s  eta %.1fs", num("sims_per_sec"), num("eta_seconds"))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sramfail:", err)
	os.Exit(1)
}
