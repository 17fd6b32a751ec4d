// Command calibrate regenerates the workload calibration recorded in
// EXPERIMENTS.md: nominal metric values, per-σ gradients, the linearized
// distance-to-failure implied by each spec, and (for the 2-D read-current
// workloads) the failure probability by grid quadrature.
//
//	calibrate            # all workloads
//	calibrate -grid      # include the slow 2-D quadrature
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"

	"repro/internal/mc"
	"repro/internal/sram"
	"repro/internal/stat"
	"repro/internal/telemetry"
)

func main() {
	grid := flag.Bool("grid", false, "run the 2-D grid quadratures (slower)")
	workers := flag.Int("workers", 0, "evaluation-pool workers for the quadratures (0 = all cores)")
	teleOut := flag.String("telemetry", "", "write structured solver events (JSONL) to this file")
	traceOut := flag.String("trace", "", "write a span trace to this file (Chrome trace JSON, or JSONL with a .jsonl suffix)")
	stats := flag.Bool("stats", false, "print solver telemetry after the run")
	flag.Parse()

	cli, err := telemetry.StartCLI(*teleOut, *traceOut, "", *stats)
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}

	// Ctrl-C flushes telemetry and exits instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	go func() {
		<-ctx.Done()
		stop()
		cli.Close()
		fmt.Fprintln(os.Stderr, "calibrate: interrupted")
		os.Exit(130)
	}()
	reg = cli.Registry

	// Every row reads raw values from the engine of the workload it
	// calibrates, so cell, spec and σ are the workload's own.
	rnm, wnm := sram.RNMWorkload(), sram.WNMWorkload()
	rc, dual := sram.ReadCurrentWorkload(), sram.DualReadCurrentWorkload()
	access := sram.AccessTimeWorkload()
	for _, m := range []*sram.Metric{rnm, wnm, rc, dual, access} {
		m.SetTelemetry(reg)
	}
	failed := false
	row := func(name string, sigma, spec, unit float64, failHigh bool, raw rawMetric) {
		if err := calibrate(name, sigma, spec*unit, unit, failHigh, raw); err != nil {
			fmt.Fprintf(os.Stderr, "calibrate: %s: %v\n", name, err)
			failed = true
		}
	}

	fmt.Println("== static noise margins (Default90nm, σVth = 30 mV) ==")
	row("RNM", rnm.Cell.SigmaVth, rnm.Spec, 1, false, rnm.Raw)
	row("WNM (write trip)", wnm.Cell.SigmaVth, wnm.Spec, 1, false, wnm.Raw)

	fmt.Println("\n== read currents ==")
	row("single-path read current (FastRead90nm, µA)", rc.Cell.SigmaVth, rc.Spec, 1e6, false, rc.Raw)
	row("dual read current (Default90nm, µA)", dual.Cell.SigmaVth, dual.Spec, 1e6, false, dual.Raw)

	fmt.Println("\n== access time (FastRead90nm, ps; fails HIGH) ==")
	row("access time", access.Cell.SigmaVth, access.Spec, 1e12, true, access.Raw)

	if *grid {
		fmt.Println("\n== 2-D grid quadratures ==")
		quadrature("single-path read current", rc, *workers)
		quadrature("dual read current", dual, *workers)
	}

	if reg != nil {
		fmt.Println()
		reg.WriteTable(os.Stdout)
	}
	if err := cli.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
	if failed {
		os.Exit(1)
	}
}

// reg is the optional run-telemetry registry shared by every solve and
// quadrature in the command (nil when not requested).
var reg *telemetry.Registry

type rawMetric func(d [sram.NumTransistors]float64) (float64, error)

// calibrate prints the nominal value, the per-σ gradient for every
// transistor, and the linearized failure distance β = (nominal −
// spec)/‖∇‖ (negated for timing metrics, which fail high) with the
// Pf ≈ Φ(−β) it implies. Raw values are multiplied by unit before
// printing; spec is already in that unit. A failed probe is an error.
func calibrate(name string, sigma, spec, unit float64, failHigh bool, raw rawMetric) error {
	f := func(d [sram.NumTransistors]float64) (float64, error) {
		v, err := raw(d)
		return v * unit, err
	}
	var zero [sram.NumTransistors]float64
	nominal, err := f(zero)
	if err != nil {
		return err
	}
	grad := make([]float64, sram.NumTransistors)
	norm := 0.0
	for i := 0; i < sram.NumTransistors; i++ {
		var dp, dm [sram.NumTransistors]float64
		dp[i], dm[i] = sigma*0.5, -sigma*0.5
		fp, err := f(dp)
		if err != nil {
			return fmt.Errorf("gradient %d: %w", i, err)
		}
		fm, err := f(dm)
		if err != nil {
			return fmt.Errorf("gradient %d: %w", i, err)
		}
		grad[i] = fp - fm
		norm += grad[i] * grad[i]
	}
	norm = math.Sqrt(norm)
	beta := math.Inf(1)
	if norm > 0 {
		if failHigh {
			beta = (spec - nominal) / norm
		} else {
			beta = (nominal - spec) / norm
		}
	}
	fmt.Printf("%s:\n", name)
	fmt.Printf("  nominal %.4g, spec %.4g\n", nominal, spec)
	fmt.Printf("  grad/σ per transistor: %.4g\n", grad)
	fmt.Printf("  ‖∇‖ = %.4g/σ; linearized β = %.2fσ → Pf ≈ %.2g\n",
		norm, beta, stat.NormSF(beta))
	return nil
}

// quadrature integrates a 2-D workload's failure probability on a grid.
// Rows of the grid evaluate on the batch engine — one simulation per
// cell is exactly the workload the Evaluator parallelizes — and the row
// sums fold in index order, so the result does not depend on workers.
func quadrature(name string, m *sram.Metric, workers int) {
	const step = 0.25
	const x2lo, x2hi, x1lo, x1hi = -10.0, 10.0, -6.0, 12.0
	rows := int((x2hi-x2lo)/step) + 1
	ev := mc.NewEvaluator(m, workers).WithTelemetry(reg)
	partial := mc.Map(ev, 0, 0, rows, func(_ *rand.Rand, r int) float64 {
		x2 := x2lo + float64(r)*step
		row := 0.0
		for x1 := x1lo; x1 <= x1hi; x1 += step {
			if m.Value([]float64{x1, x2}) < 0 {
				row += stat.NormPDF(x1) * stat.NormPDF(x2) * step * step
			}
		}
		return row
	})
	pf := 0.0
	for _, p := range partial {
		pf += p
	}
	fmt.Printf("  %s: Pf ≈ %.3g (grid step %.2fσ)\n", name, pf, step)
}
