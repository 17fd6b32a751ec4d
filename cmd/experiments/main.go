// Command experiments regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md §4 for the experiment index):
//
//	experiments table1          Table I: #sims to reach 5% error (RNM, WNM)
//	experiments table2          Table II: read-current Pf per method + golden MC
//	experiments fig3            Fig. 3: conditional arc scatter (quadrant region)
//	experiments fig6            Fig. 6: estimate vs stage-2 sims (RNM, WNM)
//	experiments fig7            Fig. 7: 99% relative error vs stage-2 sims
//	experiments fig8to11        Figs. 8–11: stage-2 sample scatter per method
//	experiments fig12           Fig. 12: read-current estimate vs stage-2 sims
//	experiments fig13           Fig. 13: failure-region map + per-method samples
//	experiments fig14           Fig. 14: first three Gibbs samples, G-C vs G-S
//	experiments ext-mixture     extension: single Normal vs Gaussian-mixture fit
//	experiments ext-access      extension: transient access-time workload
//	experiments ext-baselines   extension: blockade + subset simulation
//	experiments ext-dimscaling  extension: §VI high-dimensional scaling study
//	experiments all             everything above
//
// Flags:
//
//	-seed N     RNG seed (default 1)
//	-quick      scale budgets down ~10× for a fast smoke run
//	-out DIR    write CSV series/scatter data under DIR (default "out")
//	-golden N   brute-force golden sample count for table2 (default 8.7e6)
//	-workers N  evaluation-pool workers, 0 = all cores (estimates are
//	            identical for every worker count)
//
// Text tables go to stdout; figures are emitted as CSV files that plot
// directly (the repository is stdlib-only, so no plotting code).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/telemetry"
)

type config struct {
	seed    int64
	quick   bool
	outDir  string
	golden  int
	workers int
	tele    *telemetry.Registry
}

func main() {
	cfg := config{}
	var (
		teleOut   string
		traceOut  string
		debugAddr string
		stats     bool
	)
	flag.Int64Var(&cfg.seed, "seed", 1, "RNG seed")
	flag.BoolVar(&cfg.quick, "quick", false, "scale budgets down for a fast smoke run")
	flag.StringVar(&cfg.outDir, "out", "out", "directory for CSV outputs")
	flag.IntVar(&cfg.golden, "golden", 8_700_000, "brute-force golden samples for table2")
	flag.IntVar(&cfg.workers, "workers", 0, "evaluation-pool workers for every sampling stage (0 = all cores)")
	flag.StringVar(&teleOut, "telemetry", "", "write structured run events (JSONL) to this file")
	flag.StringVar(&traceOut, "trace", "", "write a span trace to this file (Chrome trace JSON, or JSONL with a .jsonl suffix)")
	flag.StringVar(&debugAddr, "debug-addr", "", "serve /metrics (Prometheus text) and /debug/pprof on this address while running")
	flag.BoolVar(&stats, "stats", false, "print the run-telemetry metric table at the end")
	flag.Parse()

	cli, err := telemetry.StartCLI(teleOut, traceOut, debugAddr, stats)
	if err != nil {
		fatal(err)
	}
	cfg.tele = cli.Registry

	if flag.NArg() != 1 {
		usage()
	}
	// Ctrl-C cancels the current experiment at the next evaluation
	// chunk; a second ctrl-C kills the process outright. Every stage's
	// spans nest under the trace's root.
	ctx, stopSignals := signal.NotifyContext(cli.Context(context.Background()), os.Interrupt)
	defer stopSignals()
	runners := map[string]func(context.Context, config) error{
		"table1":         runTable1,
		"table2":         runTable2,
		"fig3":           runFig3,
		"fig6":           runFig6,
		"fig7":           runFig7,
		"fig8to11":       runFig8to11,
		"fig12":          runFig12,
		"fig13":          runFig13,
		"fig14":          runFig14,
		"ext-mixture":    runExtMixture,
		"ext-access":     runExtAccess,
		"ext-baselines":  runExtBaselines,
		"ext-dimscaling": runExtDimScaling,
	}
	order := []string{"fig3", "fig6", "fig7", "fig8to11", "table1", "fig12", "fig13", "fig14", "table2",
		"ext-mixture", "ext-access", "ext-baselines", "ext-dimscaling"}

	name := flag.Arg(0)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	start := time.Now()
	if name == "all" {
		for _, n := range order {
			fmt.Printf("\n================= %s =================\n", n)
			if err := runners[n](ctx, cfg); err != nil {
				if errors.Is(err, context.Canceled) {
					fmt.Fprintln(os.Stderr, "experiments: interrupted")
					os.Exit(130)
				}
				fatal(fmt.Errorf("%s: %w", n, err))
			}
		}
	} else {
		run, ok := runners[name]
		if !ok {
			usage()
		}
		if err := run(ctx, cfg); err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "experiments: interrupted")
				os.Exit(130)
			}
			fatal(fmt.Errorf("%s: %w", name, err))
		}
	}
	fmt.Printf("\ndone in %v\n", time.Since(start).Round(time.Millisecond))
	if cfg.tele != nil {
		fmt.Println()
		cfg.tele.WriteTable(os.Stdout)
	}
	if err := cli.Close(); err != nil {
		fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: experiments [flags] table1|table2|fig3|fig6|fig7|fig8to11|fig12|fig13|fig14|ext-mixture|ext-access|ext-baselines|ext-dimscaling|all")
	flag.PrintDefaults()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// scale returns n, or n/10 (at least lo) in quick mode.
func (c config) scale(n, lo int) int {
	if !c.quick {
		return n
	}
	s := n / 10
	if s < lo {
		s = lo
	}
	return s
}
