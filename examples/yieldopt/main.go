// Yield optimization (the paper's concluding direction: "the Gibbs
// sampling technique can be further incorporated into a statistical
// optimization environment for accurate and efficient parametric yield
// optimization"): size the access transistors of the 6-T cell so the
// dual-sided read-current failure rate meets a target, using spherical
// Gibbs sampling as the yield oracle inside a bisection loop.
//
//	go run ./examples/yieldopt [-target 1e-7] [-seed 1]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/gibbs"
	"repro/internal/mc"
	"repro/internal/model"
	"repro/internal/sram"
)

func main() {
	target := flag.Float64("target", 1e-7, "maximum acceptable failure probability")
	seed := flag.Int64("seed", 1, "RNG seed")
	flag.Parse()

	// Yield oracle: G-S estimate of the dual read-current failure rate
	// for a given access width.
	totalSims := int64(0)
	estimate := func(accessWidth float64) float64 {
		cell := sram.Default90nm()
		cell.Access.W = accessWidth
		metric := &sram.Metric{
			Cell: cell, Kind: sram.DualRead, Spec: sram.DualReadCurrentSpec,
			Which: []int{sram.M3, sram.M4}, Scale: 1e6,
		}
		counter := mc.NewCounter(metric)
		res, err := gibbs.TwoStageContext(context.Background(), counter, gibbs.TwoStageOptions{
			Coord: gibbs.Spherical, K: 800, N: 4000,
		}, rand.New(rand.NewSource(*seed)))
		totalSims += counter.Count()
		if errors.Is(err, model.ErrNoFailureFound) {
			// No failure anywhere within the 10σ search radius: the
			// failure probability is below ~1e-23, i.e. effectively 0.
			return 0
		}
		if err != nil {
			log.Fatalf("W=%.0fnm: %v", accessWidth*1e9, err)
		}
		return res.Pf
	}

	fmt.Printf("target failure rate: %.2g\n\n", *target)
	fmt.Printf("%12s %14s\n", "Waccess", "Pf (G-S)")

	// Wider access ⇒ more read current ⇒ lower failure rate: bisection
	// over the width finds the minimum-area passing design.
	lo, hi := 130e-9, 200e-9
	pfLo := estimate(lo)
	fmt.Printf("%10.0fnm %14.3g\n", lo*1e9, pfLo)
	if pfLo <= *target {
		fmt.Println("\nbaseline design already meets the target")
		return
	}
	pfHi := estimate(hi)
	fmt.Printf("%10.0fnm %14.3g\n", hi*1e9, pfHi)
	if pfHi > *target {
		log.Fatalf("even W=%.0fnm misses the target (%.3g)", hi*1e9, pfHi)
	}
	for i := 0; i < 6; i++ {
		mid := 0.5 * (lo + hi)
		pf := estimate(mid)
		fmt.Printf("%10.0fnm %14.3g\n", mid*1e9, pf)
		if pf > *target {
			lo = mid
		} else {
			hi = mid
		}
	}
	fmt.Printf("\nminimum passing access width ≈ %.0f nm\n", hi*1e9)
	fmt.Printf("total transistor-level simulations spent: %d\n", totalSims)
	fmt.Println("\n(a brute-force yield oracle would need >1e7 simulations per probe)")
}
