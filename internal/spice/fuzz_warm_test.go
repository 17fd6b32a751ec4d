package spice

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// FuzzSolveDCFrom drives the warm-start solve the way the sram engines
// do: pseudo-random circuit topologies derived from the fuzz seed, each
// sample's ΔVth applied to the shared MOSFETs in turn and solved from one
// nominal anchor behind a basin-style guard. It checks the solver's
// structural invariants:
//
//   - never panics, whatever the topology or sample set;
//   - an operating point is nil exactly when its error is non-nil;
//   - every returned operating point converged: its residual is within
//     iTol (1e-9 A) and it took at least one Newton iteration, so no
//     attempt that gave up (on its budget or on a stall) ever hands back
//     its last iterate;
//   - no solution shares storage with another sample's or with the
//     anchor — each converged operating point owns its vector;
//   - re-solving any sample after all the others reproduces it bit for
//     bit, so no state carries over from one sample to the next.
func FuzzSolveDCFrom(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2))
	f.Add(int64(7), uint8(0), uint8(0))
	f.Add(int64(42), uint8(8), uint8(4))
	f.Add(int64(-3), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nsRaw, ndRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		ns := int(nsRaw) % 9   // 0..8 samples
		nd := 1 + int(ndRaw)%5 // 1..5 MOSFETs
		c := NewCircuit()
		c.AddVSource("vdd", "vdd", "0", 1.0)
		c.AddResistor("ra", "a", "0", 1e5)
		c.AddResistor("rb", "b", "0", 1e5)
		c.AddResistor("rs", "vdd", "a", 1e5)
		nodes := []string{"0", "vdd", "a", "b"}
		mosfets := make([]*MOSFET, nd)
		for i := range mosfets {
			model, bulk := nmosModel(), "0"
			if rng.Intn(2) == 1 {
				model, bulk = pmosModel(), "vdd"
			}
			mosfets[i] = c.AddMOSFET(fmt.Sprintf("m%d", i),
				nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))],
				nodes[rng.Intn(len(nodes))], bulk, model)
		}

		// A failed nominal solve leaves the anchor nil: every sample
		// then solves cold, which must hold the same invariants.
		anchor, _ := c.SolveDC(nil)
		limit := rng.Float64()
		guard := func(op *OperatingPoint) bool { return op.Voltage("a") < limit }
		samples := make([][]float64, ns)
		for i := range samples {
			row := make([]float64, nd)
			for j := range row {
				row[j] = 0.1 * rng.NormFloat64()
			}
			samples[i] = row
		}
		solve := func(row []float64) *OperatingPoint {
			for k, m := range mosfets {
				m.DeltaVth = row[k]
			}
			op, err := c.SolveDCFrom(anchor, guard, nil)
			if (op == nil) != (err != nil) {
				t.Fatalf("op/err disagree: %v / %v", op, err)
			}
			if op != nil && (op.Residual() > 1e-9 || op.NewtonIterations() < 1) {
				t.Fatalf("unconverged operating point returned (%v): residual %v, %d iterations",
					op.Strategy(), op.Residual(), op.NewtonIterations())
			}
			return op
		}

		ops := make([]*OperatingPoint, ns)
		for i, row := range samples {
			ops[i] = solve(row)
		}
		for i, op := range ops {
			if op == nil {
				continue
			}
			if anchor != nil && &op.x[0] == &anchor.x[0] {
				t.Fatalf("sample %d shares storage with the anchor", i)
			}
			for j := i + 1; j < len(ops); j++ {
				if ops[j] != nil && &op.x[0] == &ops[j].x[0] {
					t.Fatalf("samples %d and %d share solution storage", i, j)
				}
			}
		}
		for i, op := range ops {
			if op == nil {
				continue
			}
			again := solve(samples[i])
			if again == nil {
				t.Fatalf("sample %d: solved in sequence but the re-solve failed", i)
			}
			for k := range op.x {
				if math.Float64bits(again.x[k]) != math.Float64bits(op.x[k]) {
					t.Fatalf("sample %d unknown %d: re-solve %v != first solve %v", i, k, again.x[k], op.x[k])
				}
			}
		}
	})
}
