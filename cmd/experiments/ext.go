package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/baselines"
	"repro/internal/gibbs"
	"repro/internal/mc"
	"repro/internal/sram"
	"repro/internal/surrogate"
)

// Extension experiments beyond the paper's evaluation (EXPERIMENTS.md
// "Extensions" section): the §IV-C Gaussian-mixture distortion, the
// transient access-time workload, and the extra baselines (statistical
// blockade, subset simulation) on a common analytic reference.

// runExtMixture contrasts the single-Normal Algorithm 5 fit with the
// Gaussian-mixture extension on the dual read-current workload.
func runExtMixture(ctx context.Context, cfg config) error {
	metric := sram.DualReadCurrentWorkload()
	k := c2(cfg.quick, 400, 2000)
	n := c2(cfg.quick, 2000, 10000)
	fmt.Printf("G-S distortion fit on the two-lobe dual read-current workload (K=%d, N=%d):\n\n", k, n)
	fmt.Printf("%-22s %14s %12s\n", "", "Failure Rate", "Rel. Error")
	var rows [][]string
	for _, mixture := range []int{0, 2} {
		counter := mc.NewCounter(metric)
		rng := rand.New(rand.NewSource(cfg.seed))
		res, err := gibbs.TwoStageContext(ctx, counter, gibbs.TwoStageOptions{
			Coord: gibbs.Spherical, K: k, N: n, Mixture: mixture, Workers: cfg.workers,
			Chain: paperChain(),
		}, rng)
		if err != nil {
			return err
		}
		name := "single Normal"
		if mixture >= 2 {
			name = fmt.Sprintf("%d-component mixture", mixture)
		}
		fmt.Printf("%-22s %14.3g %11.1f%%\n", name, res.Pf, 100*res.RelErr99)
		rows = append(rows, []string{name, f64(res.Pf), f64(res.RelErr99)})
	}
	fmt.Println("\nexpected shape: both unbiased (closed form 1.59e-6); the mixture has")
	fmt.Println("the tighter interval because each component hugs one lobe.")
	return writeCSV(cfg, "ext_mixture.csv", []string{"fit", "pf", "relerr99"}, rows)
}

// runExtAccess runs the dynamic access-time workload (transient bitline
// discharge) through G-C and G-S.
func runExtAccess(ctx context.Context, cfg config) error {
	metric := sram.AccessTimeWorkload()
	k := c2(cfg.quick, 150, 600)
	n := c2(cfg.quick, 500, 3000)
	fmt.Printf("access-time workload (transient simulation; spec %.1f ps):\n\n", 39.7)
	fmt.Printf("%-6s %14s %12s %16s\n", "method", "Failure Rate", "Rel. Error", "simulations")
	var rows [][]string
	for _, coord := range []gibbs.Coord{gibbs.Cartesian, gibbs.Spherical} {
		counter := mc.NewCounter(metric)
		rng := rand.New(rand.NewSource(cfg.seed))
		res, err := gibbs.TwoStageContext(ctx, counter, gibbs.TwoStageOptions{
			Coord: coord, K: k, N: n, Workers: cfg.workers, Chain: paperChain(),
		}, rng)
		if err != nil {
			return err
		}
		fmt.Printf("%-6s %14.3g %11.1f%% %8d + %d\n",
			coord, res.Pf, 100*res.RelErr99, res.Stage1Sims, res.Stage2Sims)
		rows = append(rows, []string{coord.String(), f64(res.Pf), f64(res.RelErr99)})
	}
	return writeCSV(cfg, "ext_access.csv", []string{"method", "pf", "relerr99"}, rows)
}

// runExtBaselines compares the extra rare-event baselines (blockade,
// subset simulation) with G-S and the closed form on an analytic metric,
// so their behaviour is auditable independent of the circuit.
func runExtBaselines(ctx context.Context, cfg config) error {
	lin := &surrogate.Linear{W: []float64{1, 1, 1}, B: 8} // Pf = Φ(−8/√3) ≈ 1.93e-6
	exact := lin.ExactPf()
	fmt.Printf("extra baselines on a linear metric (exact Pf = %.3g):\n\n", exact)
	fmt.Printf("%-10s %14s %12s %12s\n", "method", "Failure Rate", "Rel. Error", "simulations")
	var rows [][]string
	record := func(name string, pf, rel float64, sims int64) {
		fmt.Printf("%-10s %14.3g %11.1f%% %12d\n", name, pf, 100*rel, sims)
		rows = append(rows, []string{name, f64(pf), f64(rel), fmt.Sprint(sims)})
	}

	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(cfg.seed))
	sub, err := baselines.SubsetContext(ctx, counter, baselines.SubsetOptions{
		Particles: c2(cfg.quick, 300, 1000), Workers: cfg.workers,
	}, rng)
	if err != nil {
		return err
	}
	record("subset", sub.Pf, sub.RelErr99, sub.Sims)

	counter = mc.NewCounter(lin)
	rng = rand.New(rand.NewSource(cfg.seed))
	bl, err := baselines.BlockadeContext(ctx, counter, baselines.BlockadeOptions{
		Train: 800, N: c2(cfg.quick, 300000, 3000000), Workers: cfg.workers,
	}, rng)
	if err != nil {
		return err
	}
	record("blockade", bl.Pf, bl.RelErr99, bl.TrainSims+bl.TailSims)

	counter = mc.NewCounter(lin)
	rng = rand.New(rand.NewSource(cfg.seed))
	gs, err := gibbs.TwoStageContext(ctx, counter, gibbs.TwoStageOptions{
		Coord: gibbs.Spherical, K: c2(cfg.quick, 200, 800), N: c2(cfg.quick, 1000, 5000),
		Workers: cfg.workers, Chain: paperChain(),
	}, rng)
	if err != nil {
		return err
	}
	record("g-s", gs.Pf, gs.RelErr99, gs.Stage1Sims+gs.Stage2Sims)

	return writeCSV(cfg, "ext_baselines.csv",
		[]string{"method", "pf", "relerr99", "sims"}, rows)
}
