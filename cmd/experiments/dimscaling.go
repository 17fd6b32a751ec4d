package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/gibbs"
	"repro/internal/mc"
	"repro/internal/model"
	"repro/internal/surrogate"
)

// runExtDimScaling quantifies the paper's §VI limitation: "the proposed
// Gibbs sampling technique can be computationally inefficient for
// high-dimensional problems … (e.g., M ≥ 30)". On a spherical-shell
// region with exact P_f held fixed across dimensions, it measures the
// G-S first-stage cost per Gibbs sample and the estimate quality at a
// fixed sample budget as M grows.
func runExtDimScaling(ctx context.Context, cfg config) error {
	k := c2(cfg.quick, 200, 800)
	n := c2(cfg.quick, 1000, 4000)
	fmt.Printf("G-S dimensionality scaling on shell regions with Pf ≈ 1e-6 (K=%d, N=%d):\n\n", k, n)
	fmt.Printf("%4s %10s %14s %14s %12s %14s\n",
		"M", "radius", "exact Pf", "estimate", "rel. error", "sims/sample")
	var rows [][]string
	for _, m := range []int{2, 6, 12, 24, 48} {
		// Radius such that Chi(M).SF(R) = 1e-6 keeps the problem equally
		// rare in every dimension.
		r := chiQuantileSF(m, 1e-6)
		shell := &surrogate.Shell{M: m, R: r}
		exact := shell.ExactPf()
		counter := mc.NewCounter(shell)
		rng := rand.New(rand.NewSource(cfg.seed))
		res, err := gibbs.TwoStageContext(ctx, counter, gibbs.TwoStageOptions{
			Coord: gibbs.Spherical, K: k, N: n, Workers: cfg.workers, Chain: paperChain(),
			// High-dimensional shells sit beyond the default 10σ
			// starting-point search radius.
			Start: &model.StartOptions{MaxRadius: r + 5},
		}, rng)
		if err != nil {
			return fmt.Errorf("M=%d: %w", m, err)
		}
		perSample := float64(res.Stage1Sims) / float64(len(res.Samples))
		fmt.Printf("%4d %10.3f %14.3g %14.3g %11.1f%% %14.1f\n",
			m, r, exact, res.Pf, 100*res.RelErr99, perSample)
		rows = append(rows, []string{
			fmt.Sprint(m), f64(r), f64(exact), f64(res.Pf), f64(res.RelErr99), f64(perSample),
		})
	}
	fmt.Println("\nexpected shape (paper §VI): cost per sample stays bounded (one")
	fmt.Println("coordinate at a time) but a full Gibbs sweep needs M+1 updates, so")
	fmt.Println("effective mixing — and with it estimate quality at fixed K — degrades")
	fmt.Println("as M grows.")
	return writeCSV(cfg, "ext_dimscaling.csv",
		[]string{"m", "radius", "exact_pf", "estimate", "relerr99", "sims_per_sample"}, rows)
}

// chiQuantileSF returns r with Chi(m).SF(r) = p via bisection on the
// survival function.
func chiQuantileSF(m int, p float64) float64 {
	lo, hi := 0.0, 60.0
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if sf := shellSF(m, mid); sf > p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

func shellSF(m int, r float64) float64 {
	return (&surrogate.Shell{M: m, R: r}).ExactPf()
}
