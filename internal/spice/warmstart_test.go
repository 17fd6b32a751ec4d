package spice

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/telemetry"
)

// inverterChain builds a two-stage CMOS inverter chain biased past the
// switching threshold (0.7 V in), so the stage outputs sit near the
// rails: small ΔVth perturbations barely move the operating point — the
// regime mismatch sampling lives in, and the one where a nominal anchor
// is provably closer than the zero-voltage cold guess. Returns the
// circuit and its MOSFET templates in ΔVth-vector order.
func inverterChain() (*Circuit, []*MOSFET) {
	c := NewCircuit()
	c.AddVSource("vdd", "vdd", "0", 1.0)
	c.AddVSource("vin", "in", "0", 0.7)
	mn1 := c.AddMOSFET("mn1", "out1", "in", "0", "0", nmosModel())
	mp1 := c.AddMOSFET("mp1", "out1", "in", "vdd", "vdd", pmosModel())
	mn2 := c.AddMOSFET("mn2", "out2", "out1", "0", "0", nmosModel())
	mp2 := c.AddMOSFET("mp2", "out2", "out1", "vdd", "vdd", pmosModel())
	return c, []*MOSFET{mn1, mp1, mn2, mp2}
}

// TestWarmStartProperty is the satellite property suite for the
// warm-start kernel: over seeded random ΔVth perturbations (the same
// mismatch statistics the Monte Carlo estimators draw), Newton from the
// nominal anchor must (a) converge as StrategyWarm, (b) spend no more
// iterations than the cold escalation, and (c) land on the same
// operating point to within the solver's own residual tolerance.
func TestWarmStartProperty(t *testing.T) {
	c, mosfets := inverterChain()
	nominal, err := c.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	nodes := c.NodeNames()
	for trial := 0; trial < 100; trial++ {
		for _, m := range mosfets {
			m.DeltaVth = 0.01 * rng.NormFloat64()
		}
		cold, err := c.SolveDC(nil)
		if err != nil {
			t.Fatalf("trial %d: cold solve: %v", trial, err)
		}
		warm, err := c.SolveDCFrom(nominal, 0, nil, nil)
		if err != nil {
			t.Fatalf("trial %d: warm solve: %v", trial, err)
		}
		if warm.Strategy() != StrategyWarm {
			t.Fatalf("trial %d: warm solve used %v, want StrategyWarm", trial, warm.Strategy())
		}
		if warm.NewtonIterations() > cold.NewtonIterations() {
			t.Fatalf("trial %d: warm start took %d iterations, cold only %d",
				trial, warm.NewtonIterations(), cold.NewtonIterations())
		}
		if warm.Residual() > 1e-8 {
			t.Fatalf("trial %d: warm residual %v above tolerance", trial, warm.Residual())
		}
		for _, n := range nodes {
			if d := math.Abs(warm.Voltage(n) - cold.Voltage(n)); d > 1e-7 {
				t.Fatalf("trial %d: node %s differs by %v between warm and cold", trial, n, d)
			}
		}
	}
}

// TestWarmStartDivergentFallsBack: a deliberately hopeless anchor (node
// voltages at 10^6 V, far beyond what MaxStep·WarmMaxIter damped Newton
// can walk back) must not poison the solve — the kernel falls back to
// the cold escalation, converges to the true operating point, and the
// fallback is visible in telemetry.
func TestWarmStartDivergentFallsBack(t *testing.T) {
	c, _ := inverterChain()
	reg := telemetry.New()
	opts := &DCOptions{Telemetry: reg}
	cold, err := c.SolveDC(opts)
	if err != nil {
		t.Fatal(err)
	}
	bad := cold.Clone()
	for i := range bad.x {
		bad.x[i] = 1e6
	}
	fallsBefore := reg.Scope("spice").Counter("warm_fallback_total").Value()
	op, err := c.SolveDCFrom(bad, 0, nil, opts)
	if err != nil {
		t.Fatalf("divergent warm start must recover cold: %v", err)
	}
	if op.Strategy() == StrategyWarm {
		t.Fatal("divergent anchor reported StrategyWarm")
	}
	for _, n := range c.NodeNames() {
		if op.Voltage(n) != cold.Voltage(n) {
			t.Fatalf("node %s: fallback %v != cold %v", n, op.Voltage(n), cold.Voltage(n))
		}
	}
	if got := reg.Scope("spice").Counter("warm_fallback_total").Value(); got != fallsBefore+1 {
		t.Fatalf("warm_fallback_total = %d, want %d", got, fallsBefore+1)
	}
}

// TestWarmStartGuardRejection: a guard veto counts as a fallback even
// though the warm Newton converged, and the result is the cold path's
// bit for bit. The call is still one solve to telemetry: its iteration
// count covers the rejected warm attempt plus the cold escalation, and
// it records one newton_iterations observation and one "spice.solve"
// span aggregate.
func TestWarmStartGuardRejection(t *testing.T) {
	c, _ := inverterChain()
	cold, err := c.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.SolveDCFrom(cold.Clone(), 0, nil, nil)
	if err != nil || warm.Strategy() != StrategyWarm {
		t.Fatalf("unguarded warm solve: %v, %v", warm, err)
	}

	reg := telemetry.New()
	tr := telemetry.NewTrace()
	reg.SetTrace(tr)
	span := reg.StartSpan("test")
	never := func(*OperatingPoint) bool { return false }
	op, err := c.SolveDCFrom(cold.Clone(), 0, never, &DCOptions{Telemetry: reg})
	span.End()
	if err != nil {
		t.Fatal(err)
	}
	if op.Strategy() == StrategyWarm {
		t.Fatal("guard-rejected solve reported StrategyWarm")
	}
	for _, n := range c.NodeNames() {
		if op.Voltage(n) != cold.Voltage(n) {
			t.Fatalf("node %s: guarded fallback %v != cold %v", n, op.Voltage(n), cold.Voltage(n))
		}
	}
	s := reg.Scope("spice")
	if s.Counter("warm_fallback_total").Value() != 1 {
		t.Fatal("guard rejection not recorded as one fallback")
	}
	if s.Counter("warm_hit_total").Value() != 0 {
		t.Fatal("guard rejection recorded as a warm hit")
	}
	want := warm.NewtonIterations() + cold.NewtonIterations()
	if got := op.NewtonIterations(); got != want || got <= cold.NewtonIterations() {
		t.Fatalf("NewtonIterations = %d, want warm %d + cold %d",
			got, warm.NewtonIterations(), cold.NewtonIterations())
	}
	if h := s.Histogram("newton_iterations", nil); h.Count() != 1 || h.Sum() != float64(want) {
		t.Fatalf("newton_iterations histogram: count=%d sum=%v, want 1/%d", h.Count(), h.Sum(), want)
	}
	if got := span.Agg("spice.solve").Count(); got != 1 {
		t.Fatalf("spice.solve aggregate counted %d solves for one call", got)
	}
}

// TestWarmStartNilAnchorIsNotAFallback: offering no anchor at all is a
// plain cold solve, not a failed warm start — the fallback counter must
// stay untouched.
func TestWarmStartNilAnchorIsNotAFallback(t *testing.T) {
	c, _ := inverterChain()
	reg := telemetry.New()
	opts := &DCOptions{Telemetry: reg}
	if _, err := c.SolveDCFrom(nil, 0, nil, opts); err != nil {
		t.Fatal(err)
	}
	if got := reg.Scope("spice").Counter("warm_fallback_total").Value(); got != 0 {
		t.Fatalf("nil anchor counted %d fallbacks", got)
	}
}
