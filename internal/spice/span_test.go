package spice

import (
	"errors"
	"testing"

	"repro/internal/telemetry"
)

// tracedRegistry returns a registry with a trace installed.
func tracedRegistry() (*telemetry.Registry, *telemetry.Trace) {
	reg := telemetry.New()
	tr := telemetry.NewTrace()
	reg.SetTrace(tr)
	return reg, tr
}

// assertNoSpans fails if the solver opened any span: solves, sweeps and
// transients only count into the registry, and the stage spans around
// them slice those counters.
func assertNoSpans(t *testing.T, tr *telemetry.Trace) {
	t.Helper()
	if snaps := tr.Snapshot(); len(snaps) != 0 {
		t.Errorf("solver opened %d spans, want none: %+v", len(snaps), snaps)
	}
}

// TestSweepEarlyExitClosesSpan: a sweep callback returning false stops
// the sweep mid-run, and the sweep, traced or not, leaves no span
// behind: it opens none.
func TestSweepEarlyExitClosesSpan(t *testing.T) {
	reg, tr := tracedRegistry()
	c, _ := inverterChain()
	opts := &DCOptions{Telemetry: reg}
	calls := 0
	err := c.Sweep("vin", 0, 1, 11, opts, func(v float64, op *OperatingPoint) bool {
		calls++
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("sweep ran %d points after an early exit", calls)
	}
	assertNoSpans(t, tr)
}

// TestTranEarlyExitClosesSpan: same contract for a transient whose
// per-point callback aborts the run.
func TestTranEarlyExitClosesSpan(t *testing.T) {
	reg, tr := tracedRegistry()
	c := NewCircuit()
	c.AddVSource("vin", "in", "0", 1.0)
	c.AddResistor("r", "in", "n", 1e3)
	c.AddCapacitor("c", "n", "0", 1e-9)
	opts := TranOptions{Stop: 1e-5, Step: 1e-7, DC: &DCOptions{Telemetry: reg}}
	calls := 0
	err := c.SolveTran(opts, func(p TranPoint) bool {
		calls++
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("transient ran %d points after an early exit", calls)
	}
	assertNoSpans(t, tr)
}

// TestSweepErrorExitClosesSpan: a sweep that dies on an unsolvable
// point (every free node driven to a singular system) leaves no span
// on the error path either.
func TestSweepErrorExitClosesSpan(t *testing.T) {
	reg, tr := tracedRegistry()
	c := NewCircuit()
	c.AddVSource("vin", "in", "0", 0)
	// A floating node with no DC path to ground: the gmin shunt keeps
	// the matrix formally nonsingular, but an absurd MaxIter budget of
	// one iteration forces the escalation ladder to exhaust.
	c.AddResistor("r", "in", "n", 1e3)
	c.AddMOSFET("m", "n", "n", "0", "0", nmosModel())
	opts := &DCOptions{Telemetry: reg, MaxIter: 1}
	err := c.Sweep("vin", 0, 1, 5, opts, func(v float64, op *OperatingPoint) bool { return true })
	if err == nil {
		t.Skip("circuit converged in one iteration; error path not reachable here")
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("sweep failed with unexpected error: %v", err)
	}
	assertNoSpans(t, tr)
}

// TestSolveDCFromOpensNoSpan: a warm solve on a traced registry counts
// into the registry, and every one is timed, without opening a span.
func TestSolveDCFromOpensNoSpan(t *testing.T) {
	reg, tr := tracedRegistry()
	c, _ := inverterChain()
	cold, err := c.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := &DCOptions{Telemetry: reg}
	for i := 0; i < 3; i++ {
		if _, err := c.SolveDCFrom(cold, nil, opts); err != nil {
			t.Fatal(err)
		}
	}
	s := reg.Scope("spice")
	if got := s.Counter("solves_total").Value(); got != 3 {
		t.Fatalf("solves_total = %d, want 3", got)
	}
	if got := s.Histogram("solve_seconds", nil).Count(); got != 3 {
		t.Fatalf("solve_seconds timed %d of 3 solves under a trace", got)
	}
	assertNoSpans(t, tr)
}
