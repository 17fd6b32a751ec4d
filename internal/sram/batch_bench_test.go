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

func benchKernel(b *testing.B, m *Metric, chunk int) {
	b.Helper()
	reg := telemetry.New()
	m.SetTelemetry(reg)
	rng := rand.New(rand.NewSource(1))
	xs := make([][]float64, chunk)
	for i := range xs {
		x := make([]float64, m.Dim())
		for j := range x {
			x[j] = rng.NormFloat64()
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

func BenchmarkReadCurrentKernel(b *testing.B) { benchKernel(b, ReadCurrentWorkload(), 64) }

func BenchmarkRNMKernel(b *testing.B) { benchKernel(b, RNMWorkload(), 64) }
