package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/mc"
	"repro/internal/sram"
)

// runTable1 regenerates the paper's Table I: the number of simulations
// each method needs in both stages to reach 5% relative error (99% CI) on
// the RNM and WNM workloads.
func runTable1(ctx context.Context, cfg config) error {
	b := defaultBudgets(cfg)
	target := 0.05
	if cfg.quick {
		target = 0.20
	}
	type row struct {
		stage1      int64
		second, tot map[string]int64
		mix         map[string]*mixing
	}
	rows := map[string]*row{}
	metrics := map[string]mc.Metric{
		"RNM": sram.RNMWorkload(),
		"WNM": sram.WNMWorkload(),
	}
	for _, name := range methodNames {
		rows[name] = &row{second: map[string]int64{}, tot: map[string]int64{}, mix: map[string]*mixing{}}
		for _, mname := range []string{"RNM", "WNM"} {
			r, err := runMethod(ctx, name, metrics[mname], b, b.stage2Max, target, 0, cfg.seed)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", name, mname, err)
			}
			rows[name].stage1 = r.stage1
			rows[name].second[mname] = r.stage2
			rows[name].tot[mname] = r.stage1 + r.stage2
			rows[name].mix[mname] = r.mix
			fmt.Printf("  %-5s %-3s Pf=%.3g relerr=%.1f%% stage1=%d stage2=%d\n",
				name, mname, r.pf, 100*r.relErr, r.stage1, r.stage2)
		}
	}
	fmt.Printf("\nTable I: simulations to reach %.0f%% error (99%% CI)\n", 100*target)
	fmt.Printf("%-16s %12s %12s %12s %12s %12s\n",
		"", "First Stage", "2nd (RNM)", "2nd (WNM)", "Total (RNM)", "Total (WNM)")
	var csvRows [][]string
	for _, name := range methodNames {
		r := rows[name]
		fmt.Printf("%-16s %12d %12d %12d %12d %12d\n",
			label(name), r.stage1, r.second["RNM"], r.second["WNM"], r.tot["RNM"], r.tot["WNM"])
		csvRow := []string{
			name, fmt.Sprint(r.stage1),
			fmt.Sprint(r.second["RNM"]), fmt.Sprint(r.second["WNM"]),
			fmt.Sprint(r.tot["RNM"]), fmt.Sprint(r.tot["WNM"]),
		}
		for _, mname := range []string{"RNM", "WNM"} {
			if m := r.mix[mname]; m != nil {
				csvRow = append(csvRow, f64(m.ess), f64(m.tau), f64(m.acceptance))
			} else {
				csvRow = append(csvRow, "", "", "")
			}
		}
		csvRows = append(csvRows, csvRow)
	}

	// Stage-1 mixing quality of the proposed chains: effective sample
	// size, worst integrated autocorrelation time, and the fraction of
	// coordinate updates that resampled from a failure interval.
	fmt.Printf("\nchain mixing (stage 1):\n")
	fmt.Printf("%-16s %18s %18s %18s\n", "", "ESS (RNM/WNM)", "tau (RNM/WNM)", "accept (RNM/WNM)")
	for _, name := range methodNames {
		r := rows[name]
		mr, mw := r.mix["RNM"], r.mix["WNM"]
		if mr == nil || mw == nil {
			continue
		}
		fmt.Printf("%-16s %8.0f / %7.0f %8.1f / %7.1f %7.0f%% / %5.0f%%\n",
			label(name), mr.ess, mw.ess, mr.tau, mw.tau, 100*mr.acceptance, 100*mw.acceptance)
	}
	// Speedup band over the traditional methods (the paper's 1.4–4.9×).
	minTrad, maxRatio := math.Inf(1), 0.0
	for _, mname := range []string{"RNM", "WNM"} {
		trad := math.Min(float64(rows["MIS"].tot[mname]), float64(rows["MNIS"].tot[mname]))
		prop := math.Min(float64(rows["G-C"].tot[mname]), float64(rows["G-S"].tot[mname]))
		ratio := trad / prop
		if ratio < minTrad {
			minTrad = ratio
		}
		trad = math.Max(float64(rows["MIS"].tot[mname]), float64(rows["MNIS"].tot[mname]))
		prop = math.Min(float64(rows["G-C"].tot[mname]), float64(rows["G-S"].tot[mname]))
		if r := trad / prop; r > maxRatio {
			maxRatio = r
		}
	}
	fmt.Printf("\nspeedup of proposed over traditional: %.1f–%.1fx (paper: 1.4–4.9x)\n",
		minTrad, maxRatio)
	return writeCSV(cfg, "table1.csv",
		[]string{"method", "stage1", "stage2_rnm", "stage2_wnm", "total_rnm", "total_wnm",
			"ess_rnm", "tau_rnm", "accept_rnm", "ess_wnm", "tau_wnm", "accept_wnm"},
		csvRows)
}

// runTable2 regenerates the paper's Table II on the dual read-current
// workload: each method's estimate at fixed budgets, against a
// brute-force golden reference.
func runTable2(ctx context.Context, cfg config) error {
	b := defaultBudgets(cfg)
	n := c2(cfg.quick, 2000, 10000)
	fmt.Printf("Table II: dual read-current failure probability (Ith = %.2f µA)\n\n",
		sram.DualReadCurrentSpec*1e6)
	fmt.Printf("%-16s %12s %12s %14s %12s\n",
		"", "First Stage", "Second Stage", "Failure Rate", "Rel. Error")
	var csvRows [][]string
	for _, name := range methodNames {
		r, err := runMethod(ctx, name, sram.DualReadCurrentWorkload(), b, n, 0, 0, cfg.seed)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("%-16s %12d %12d %14.3g %11.1f%%\n",
			label(name), r.stage1, r.stage2, r.pf, 100*r.relErr)
		csvRows = append(csvRows, []string{name,
			fmt.Sprint(r.stage1), fmt.Sprint(r.stage2), f64(r.pf), f64(r.relErr)})
	}
	golden := cfg.golden
	if cfg.quick {
		golden = 500000
	}
	gr, err := mc.ParallelMCContext(ctx, sram.DualReadCurrentWorkload(), golden, cfg.seed, cfg.workers, cfg.tele)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %12d %12s %14.3g %11.1f%%   (%d failures)\n",
		"Brute-force MC", gr.N, "—", gr.Pf, 100*gr.RelErr99, gr.Failures)
	csvRows = append(csvRows, []string{"MC",
		fmt.Sprint(gr.N), "0", f64(gr.Pf), f64(gr.RelErr99)})
	fmt.Println("\nexpected shape (paper Table II): G-S ≈ brute force; MIS, MNIS and")
	fmt.Println("G-C underestimate or scatter — G-C confidently reports a single lobe.")
	return writeCSV(cfg, "table2.csv",
		[]string{"method", "stage1", "stage2", "pf", "relerr99"}, csvRows)
}

func label(name string) string {
	switch name {
	case "G-C", "G-S":
		return name + " (proposed)"
	default:
		return name
	}
}

func c2(cond bool, a, b int) int {
	if cond {
		return a
	}
	return b
}
