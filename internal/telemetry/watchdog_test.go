package telemetry

import (
	"testing"
	"time"
)

// watchdogHarness wires a registry with a bus and an alert channel so
// tests can block until the watchdog reacts to a streamed event.
func watchdogHarness(t *testing.T) (*Registry, *Watchdog, chan Alert) {
	t.Helper()
	reg := New()
	reg.SetBus(NewBus(64))
	alerts := make(chan Alert, 8)
	w := StartWatchdog(reg, func(a Alert) { alerts <- a })
	if w == nil {
		t.Fatal("StartWatchdog returned nil with a bus installed")
	}
	t.Cleanup(w.Stop)
	return reg, w, alerts
}

func waitAlert(t *testing.T, alerts chan Alert, kind string) Alert {
	t.Helper()
	select {
	case a := <-alerts:
		if a.Kind != kind {
			t.Fatalf("alert kind %q, want %q", a.Kind, kind)
		}
		return a
	case <-time.After(5 * time.Second):
		t.Fatalf("no %q alert within 5s", kind)
		return Alert{}
	}
}

func TestWatchdogChainStalled(t *testing.T) {
	reg, w, alerts := watchdogHarness(t)
	// Healthy chain: no alert.
	reg.Emit("gibbs.chain", map[string]any{"updates": 500, "acceptance": 0.4})
	// Stalled chain: acceptance collapsed after enough updates.
	reg.Emit("gibbs.chain", map[string]any{"updates": 500, "acceptance": 0.001})
	a := waitAlert(t, alerts, "chain_stalled")
	if a.Seq != 1 {
		t.Errorf("trigger seq %d, want 1 (the stalled event)", a.Seq)
	}
	// Too few updates must not alert even with zero acceptance.
	reg.Emit("gibbs.chain", map[string]any{"updates": 10, "acceptance": 0.0})
	// Second trigger of an already-fired kind stays silent.
	reg.Emit("gibbs.chain", map[string]any{"updates": 500, "acceptance": 0.001})
	time.Sleep(20 * time.Millisecond)
	select {
	case a := <-alerts:
		t.Fatalf("unexpected second alert %+v", a)
	default:
	}
	if got := w.Alerts(); len(got) != 1 || got[0].Kind != "chain_stalled" {
		t.Errorf("Alerts() = %+v, want exactly the chain_stalled alert", got)
	}
	if v := reg.Scope("health").Gauge("chain_stalled").Value(); v != 1 {
		t.Errorf("health gauge = %v, want 1", v)
	}
	if c := reg.Scope("health").Counter("alerts_total").Value(); c != 1 {
		t.Errorf("alerts_total = %d, want 1", c)
	}
}

func TestWatchdogWeightBlowup(t *testing.T) {
	reg, _, alerts := watchdogHarness(t)
	// Below the sample floor: ignored.
	reg.Emit("progress", map[string]any{"n": 100, "max_weight_frac": 0.9})
	// Healthy weights: ignored.
	reg.Emit("progress", map[string]any{"n": 1000, "max_weight_frac": 0.05})
	// One weight carrying 60% of the estimate: alert.
	reg.Emit("progress", map[string]any{"n": 1000, "max_weight_frac": 0.6})
	waitAlert(t, alerts, "weight_blowup")
}

func TestWatchdogNewtonStorm(t *testing.T) {
	reg, _, alerts := watchdogHarness(t)
	s := reg.Scope("spice")
	s.Counter("solves_total").Add(1000)
	s.Counter("fallback_gmin_total").Add(400)
	s.Counter("fallback_source_total").Add(300)
	// The solver counters are sampled when a progress event arrives.
	reg.Emit("progress", map[string]any{"n": 10})
	waitAlert(t, alerts, "newton_storm")
}

// TestWatchdogNewtonStormWithoutProgress covers the phases that solve
// but publish no progress (the Algorithm 4 search, MNIS training): the
// solver emits no event of its own, so the next event of any kind
// samples its counters.
func TestWatchdogNewtonStormWithoutProgress(t *testing.T) {
	reg, _, alerts := watchdogHarness(t)
	s := reg.Scope("spice")
	s.Counter("solves_total").Add(1000)
	s.Counter("fallback_gmin_total").Add(400)
	s.Counter("fallback_source_total").Add(300)
	reg.Emit("stage1.start_point", map[string]any{"sims": 120})
	if a := waitAlert(t, alerts, "newton_storm"); a.Seq != 0 {
		t.Errorf("trigger seq %d, want 0 (the stage1.start_point event)", a.Seq)
	}
}

func TestWatchdogNilAndDisabled(t *testing.T) {
	var w *Watchdog
	w.Stop()
	if w.Alerts() != nil {
		t.Error("nil watchdog Alerts must be nil")
	}
	if StartWatchdog(nil, nil) != nil {
		t.Error("StartWatchdog(nil reg) must return nil")
	}
	if StartWatchdog(New(), nil) != nil {
		t.Error("StartWatchdog without a bus must return nil")
	}
}

// TestWatchdogSurvivesBusClose pins the teardown order the job layer
// uses: the bus may close before Stop, and the watchdog must neither
// spin nor panic in between.
func TestWatchdogSurvivesBusClose(t *testing.T) {
	reg := New()
	bus := NewBus(16)
	reg.SetBus(bus)
	w := StartWatchdog(reg, nil)
	bus.Close()
	time.Sleep(10 * time.Millisecond) // let the loop see the close first
	w.Stop()
}
