package spice

import (
	"math/rand"
	"testing"
)

// Device-kernel benchmarks: softplusSq alone, and MOSFET.Eval with both
// softplus memo slots missing. They time the kernel under every solve
// directly, with no circuit, SRAM engine or host-speed scale around it.

// kernelSink keeps the benchmarked results alive.
var kernelSink float64

// BenchmarkSoftplusSq times softplusSq over 1024 seeded arguments in
// [−40, 40], which covers what the SRAM cell's devices see.
func BenchmarkSoftplusSq(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	us := make([]float64, 1024)
	for i := range us {
		us[i] = 80*rng.Float64() - 40
	}
	sum := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, df := softplusSq(us[i%len(us)])
		sum += f + df
	}
	kernelSink = sum
}

// BenchmarkMOSFETEvalMiss times MOSFET.Eval over 1024 seeded terminal
// voltage quadruples (drain, gate and source in [0, 1] V, bulk at 0), so
// consecutive calls share no softplus argument and both memo slots miss
// on every call, as they nearly always do in a transient.
func BenchmarkMOSFETEvalMiss(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vs := make([][3]float64, 1024)
	for i := range vs {
		vs[i] = [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	m := &MOSFET{d: -1, g: -1, s: -1, b: -1, Model: nmosModel()}
	sum := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := &vs[i%len(vs)]
		id, gd, gg, gs, _ := m.Eval(v[0], v[1], v[2], 0)
		sum += id + gd + gg + gs
	}
	kernelSink = sum
}
