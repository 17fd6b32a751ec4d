package sram

import (
	"math/rand"
	"testing"

	"repro/internal/telemetry"
)

// Kernel benchmarks: ValueBatch over a fixed chunk with telemetry
// attached and no mc dispatch around it. Useful for profiling the solve
// kernel without estimator noise; the repository benchmark (bench/)
// reports the same layer end to end as sram.batch_us_per_sim.

// benchKernel times ValueBatch over one chunk whose coordinate j of
// each sample is draw(rng, j), from a fixed seed.
func benchKernel(b *testing.B, m *Metric, chunk int, draw func(rng *rand.Rand, j int) float64) {
	b.Helper()
	reg := telemetry.New()
	m.SetTelemetry(reg)
	rng := rand.New(rand.NewSource(1))
	xs := make([][]float64, chunk)
	for i := range xs {
		x := make([]float64, m.Dim())
		for j := range x {
			x[j] = draw(rng, j)
		}
		xs[i] = x
	}
	out := make([]float64, len(xs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ValueBatch(xs, out)
	}
	b.ReportMetric(float64(b.N*chunk)/b.Elapsed().Seconds(), "sims/s")
}

// normal draws N(0, 1) coordinates: the mismatch statistics themselves.
func normal(rng *rand.Rand, _ int) float64 { return rng.NormFloat64() }

func BenchmarkReadCurrentKernel(b *testing.B) { benchKernel(b, ReadCurrentWorkload(), 64, normal) }

// BenchmarkReadCurrentFlipKernel draws its chunk uniformly from
// (6, −5) ± 0.5σ, inside the read-disturb flip lobe, where every sample
// fails its warm start and the cold escalation lands flipped.
// BenchmarkReadCurrentKernel's N(0, 1) chunk never gets there.
func BenchmarkReadCurrentFlipKernel(b *testing.B) {
	center := []float64{6, -5}
	benchKernel(b, ReadCurrentWorkload(), 64, func(rng *rand.Rand, j int) float64 {
		return center[j] + 0.5*(2*rng.Float64()-1)
	})
}

func BenchmarkRNMKernel(b *testing.B) { benchKernel(b, RNMWorkload(), 64, normal) }
