// Package fixture exercises the globalrand analyzer. It is loaded under
// the synthetic import path "repro/internal/mc" so the path-scoped
// analyzer fires exactly as it would on the real estimator packages.
package fixture

import "math/rand"

// Top-level draws consume the shared global source in scheduler order.
func badGlobalDraw() float64 {
	return rand.Float64() // want globalrand `top-level rand\.Float64`
}

func badGlobalInt(n int) int {
	return rand.Intn(n) // want globalrand `top-level rand\.Intn`
}

// Passing a global draw function as a callback is the same bug.
func badFuncRef() func() float64 {
	return rand.NormFloat64 // want globalrand `reference to top-level rand\.NormFloat64`
}

// The sanctioned pattern: explicitly seeded local generators.
func goodSeeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func goodLocalDraw(rng *rand.Rand) float64 {
	return rng.Float64() // method on a seeded generator: fine
}

// Type references must not be flagged.
func goodTypeUse(rng *rand.Rand, src rand.Source) (*rand.Rand, rand.Source) {
	return rng, src
}
