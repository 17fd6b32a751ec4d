package spice

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestStrategyRecordedOnPlainNewton: a well-conditioned circuit must
// converge without convergence aids, and the operating point must report
// how it got there — plain Newton, a positive iteration count and a
// residual within the KCL tolerance.
func TestStrategyRecordedOnPlainNewton(t *testing.T) {
	c := NewCircuit()
	c.AddVSource("vin", "in", "0", 3.0)
	c.AddResistor("r1", "in", "mid", 1000)
	c.AddResistor("r2", "mid", "0", 2000)
	op, err := c.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	if op.Strategy() != StrategyNewton {
		t.Fatalf("strategy = %v, want %v", op.Strategy(), StrategyNewton)
	}
	if op.NewtonIterations() <= 0 {
		t.Fatalf("NewtonIterations = %d, want > 0", op.NewtonIterations())
	}
	if op.Residual() > 1e-9 {
		t.Fatalf("residual %v above iTol", op.Residual())
	}
}

// TestStrategySurvivesClone: warm-start flows clone operating points; the
// diagnostic fields must ride along.
func TestStrategySurvivesClone(t *testing.T) {
	c := NewCircuit()
	c.AddVSource("v", "a", "0", 1)
	c.AddResistor("r", "a", "0", 100)
	op, err := c.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	cl := op.Clone()
	if cl.Strategy() != op.Strategy() || cl.NewtonIterations() != op.NewtonIterations() || cl.Residual() != op.Residual() {
		t.Fatalf("clone lost diagnostics: %v/%d/%v vs %v/%d/%v",
			cl.Strategy(), cl.NewtonIterations(), cl.Residual(),
			op.Strategy(), op.NewtonIterations(), op.Residual())
	}
}

func TestStrategyString(t *testing.T) {
	cases := map[Strategy]string{
		StrategyNewton: "newton",
		StrategyGmin:   "gmin-stepping",
		StrategySource: "source-stepping",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Strategy(%d).String() = %q, want %q", int(s), got, want)
		}
	}
	if got := Strategy(99).String(); got != "Strategy(99)" {
		t.Errorf("unknown strategy = %q", got)
	}
}

// TestSolveTelemetry checks the spice-scope metrics for a successful
// solve: one solve counted, one Newton-iteration and one wall-time
// observation, no fallback counters touched.
func TestSolveTelemetry(t *testing.T) {
	reg := telemetry.New()
	c := NewCircuit()
	c.AddVSource("vin", "in", "0", 3.0)
	c.AddResistor("r1", "in", "mid", 1000)
	c.AddResistor("r2", "mid", "0", 2000)
	op, err := c.SolveDC(&DCOptions{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Scope("spice")
	if got := s.Counter("solves_total").Value(); got != 1 {
		t.Fatalf("solves_total = %d, want 1", got)
	}
	if got := s.Counter("unconverged_total").Value(); got != 0 {
		t.Fatalf("unconverged_total = %d, want 0", got)
	}
	if got := s.Counter("fallback_gmin_total").Value() + s.Counter("fallback_source_total").Value(); got != 0 {
		t.Fatalf("fallback counters = %d on a plain-Newton solve", got)
	}
	h := s.Histogram("newton_iterations", nil)
	if h.Count() != 1 || h.Sum() != float64(op.NewtonIterations()) {
		t.Fatalf("newton_iterations histogram: count=%d sum=%v, want 1/%d",
			h.Count(), h.Sum(), op.NewtonIterations())
	}
	if got := s.Histogram("solve_seconds", nil).Count(); got != 1 {
		t.Fatalf("solve_seconds count = %d, want 1", got)
	}
}

// TestGminRescueCountedNotEmitted: a solve that gmin stepping rescues
// is counted in fallback_gmin_total and publishes no event, even on a
// registry with a bus. The node settles at 3.33 V, more than MaxIter
// damped steps of maxStep from 0 V, so plain Newton runs out of
// iterations while each gmin stage has a shorter way to go.
func TestGminRescueCountedNotEmitted(t *testing.T) {
	var buf strings.Builder
	reg := telemetry.New()
	reg.SetBus(telemetry.NewLogBus(0, &buf))
	c := NewCircuit()
	c.AddVSource("vin", "in", "0", 5.0)
	c.AddResistor("r1", "in", "mid", 1000)
	c.AddResistor("r2", "mid", "0", 2000)
	op, err := c.SolveDC(&DCOptions{Telemetry: reg, MaxIter: 6})
	if err != nil {
		t.Fatal(err)
	}
	if op.Strategy() != StrategyGmin {
		t.Fatalf("strategy = %v, want %v", op.Strategy(), StrategyGmin)
	}
	s := reg.Scope("spice")
	if got := s.Counter("fallback_gmin_total").Value(); got != 1 {
		t.Fatalf("fallback_gmin_total = %d, want 1", got)
	}
	if got := s.Counter("solves_total").Value(); got != 1 {
		t.Fatalf("solves_total = %d, want 1", got)
	}
	if buf.Len() != 0 {
		t.Fatalf("a rescued solve emitted events:\n%s", buf.String())
	}
}

// TestUnconvergedTelemetry drives the full escalation chain to failure: a
// current source into a node whose only DC path to ground is the 1e-12 S
// gmin shunt wants ~1e9 V, far beyond maxStep×MaxIter for plain Newton,
// every gmin relaxation level and every source-stepping fraction. The
// error must wrap ErrNoConvergence and be counted and emitted.
func TestUnconvergedTelemetry(t *testing.T) {
	var buf strings.Builder
	reg := telemetry.New()
	reg.SetBus(telemetry.NewLogBus(0, &buf))
	c := NewCircuit()
	c.AddISource("i1", "0", "n", 1e-3)
	_, err := c.SolveDC(&DCOptions{Telemetry: reg, MaxIter: 25})
	if err == nil {
		t.Fatal("expected convergence failure")
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("error %v does not wrap ErrNoConvergence", err)
	}
	s := reg.Scope("spice")
	if got := s.Counter("unconverged_total").Value(); got != 1 {
		t.Fatalf("unconverged_total = %d, want 1", got)
	}
	if got := s.Counter("solves_total").Value(); got != 0 {
		t.Fatalf("solves_total = %d after a failed solve", got)
	}
	if !strings.Contains(buf.String(), `"event":"spice.unconverged"`) {
		t.Fatalf("no spice.unconverged event emitted:\n%s", buf.String())
	}
}
