package repro

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/surrogate"
	"repro/internal/telemetry"
)

// TestTelemetryDoesNotPerturbEstimates is the observability contract at
// the top of the stack: attaching a registry (with a live event log)
// must not change a single bit of the statistical output, at any worker
// count. Telemetry observes the run; it never touches RNG streams or
// sample ordering.
func TestTelemetryDoesNotPerturbEstimates(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 6.5}
	base := Options{Method: GS, K: 200, N: 4000, Seed: 11}

	bare, err := Estimate(lin, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7, 0} {
		opts := base
		opts.Workers = workers
		opts.Telemetry = NewTelemetry()
		var buf strings.Builder
		opts.Telemetry.SetBus(telemetry.NewLogBus(0, &buf))
		got, err := Estimate(lin, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Pf != bare.Pf || got.StdErr != bare.StdErr || got.RelErr99 != bare.RelErr99 {
			t.Fatalf("workers=%d: telemetry changed the estimate: Pf %v vs %v, StdErr %v vs %v",
				workers, got.Pf, bare.Pf, got.StdErr, bare.StdErr)
		}
		if got.N != bare.N || got.Failures != bare.Failures || got.TotalSims != bare.TotalSims {
			t.Fatalf("workers=%d: telemetry changed accounting: N %d vs %d, sims %d vs %d",
				workers, got.N, bare.N, got.TotalSims, bare.TotalSims)
		}
		if buf.Len() == 0 {
			t.Fatalf("workers=%d: instrumented run emitted no events", workers)
		}
	}
}

// TestEventBusDoesNotPerturbEstimates extends the contract to the live
// observability plane: a registry with an event bus attached — fed by
// every Emit, fanned out to subscribers, watched by a health watchdog —
// must still produce bit-identical statistical output. The bus only
// observes marshaled copies of the published events.
func TestEventBusDoesNotPerturbEstimates(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 6.5}
	base := Options{Method: GS, K: 200, N: 4000, Seed: 11}

	bare, err := Estimate(lin, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 0} {
		opts := base
		opts.Workers = workers
		opts.Telemetry = NewTelemetry()
		bus := telemetry.NewBus(512)
		opts.Telemetry.SetBus(bus)
		// A live subscriber with a deliberately tiny queue: overflow
		// drops must also leave the estimate untouched.
		sub := bus.Subscribe(1)
		defer sub.Close()
		wd := telemetry.StartWatchdog(opts.Telemetry, nil)
		got, err := Estimate(lin, opts)
		wd.Stop()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Pf != bare.Pf || got.StdErr != bare.StdErr || got.RelErr99 != bare.RelErr99 {
			t.Fatalf("workers=%d: event bus changed the estimate: Pf %v vs %v, StdErr %v vs %v",
				workers, got.Pf, bare.Pf, got.StdErr, bare.StdErr)
		}
		if got.N != bare.N || got.Failures != bare.Failures || got.TotalSims != bare.TotalSims {
			t.Fatalf("workers=%d: event bus changed accounting: N %d vs %d, sims %d vs %d",
				workers, got.N, bare.N, got.TotalSims, bare.TotalSims)
		}
		if bus.Seq() == 0 {
			t.Fatalf("workers=%d: instrumented run published no bus events", workers)
		}
	}
}

// TestRunEventLogCoversBothStages runs an instrumented two-stage
// estimate and checks the JSONL stream line by line: every line parses,
// seq matches file order, and the log covers the full lifecycle — run
// start, stage 1, stage 2 and the final result.
func TestRunEventLogCoversBothStages(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 6.5}
	reg := NewTelemetry()
	var buf strings.Builder
	reg.SetBus(telemetry.NewLogBus(0, &buf))
	res, err := Estimate(lin, Options{Method: GS, K: 200, N: 4000, Seed: 11, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	seen := map[string]int{}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if seq := int(obj["seq"].(float64)); seq != i {
			t.Fatalf("line %d has seq %d", i, seq)
		}
		name, _ := obj["event"].(string)
		seen[name]++
	}
	for _, want := range []string{
		"run.start", "stage1.start", "stage1.start_point", "gibbs.chain",
		"stage1.done", "stage2.start", "estimator.done", "run.done",
	} {
		if seen[want] == 0 {
			t.Fatalf("event log missing %q; saw %v", want, seen)
		}
	}

	// The final run.done event must agree with the returned result.
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last["event"] != "run.done" {
		t.Fatalf("last event is %v, want run.done", last["event"])
	}
	if pf := last["pf"].(float64); pf != res.Pf {
		t.Fatalf("run.done pf %v != result %v", pf, res.Pf)
	}

	// A surrogate metric never reaches the spice layer, so the registry
	// should hold gibbs- and mc-scope metrics here (spice joins in for
	// transistor-level runs; see the CLI smoke coverage).
	snap := reg.Snapshot()
	scopes := map[string]bool{}
	for _, m := range snap {
		scopes[m.Scope] = true
	}
	for _, s := range []string{"gibbs", "mc"} {
		if !scopes[s] {
			t.Fatalf("no %q-scope metrics recorded; scopes: %v", s, scopes)
		}
	}
}

// TestTracedAccessSpans pins the trace's shape on the transient
// workload at two workers, where the two Gibbs chains and the
// evaluation pool simulate at once: the solver opens no span, the span
// count does not grow with the simulation count, every span lies inside
// its parent, and the stages' slices of spice.solves_total add up to
// the estimate's, which is the registry's.
func TestTracedAccessSpans(t *testing.T) {
	run := func(k, n int) ([]telemetry.SpanSnapshot, *Telemetry) {
		t.Helper()
		metric, err := WorkloadByName("access")
		if err != nil {
			t.Fatal(err)
		}
		reg := NewTelemetry()
		reg.SetTrace(telemetry.NewTrace())
		if _, err := EstimateContext(context.Background(), metric, Options{
			Method: GS, K: k, N: n, Seed: 3, Workers: 2, Telemetry: reg,
		}); err != nil {
			t.Fatal(err)
		}
		return reg.TraceData().Snapshot(), reg
	}
	small, _ := run(40, 200)
	spans, reg := run(80, 400)
	if len(spans) != len(small) {
		t.Fatalf("%d spans at K 80, N 400 against %d at K 40, N 200: the trace grows with the simulations",
			len(spans), len(small))
	}

	byID := make(map[int64]telemetry.SpanSnapshot, len(spans))
	byName := make(map[string]telemetry.SpanSnapshot, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		byName[s.Name] = s
	}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "spice.") {
			t.Fatalf("the solver opened span %q", s.Name)
		}
		if s.Running {
			t.Fatalf("span %q still running after the estimate", s.Name)
		}
		if s.ParentID == 0 {
			continue
		}
		p, ok := byID[s.ParentID]
		if !ok || s.StartUS < p.StartUS || s.StartUS+s.DurUS > p.StartUS+p.DurUS {
			t.Fatalf("span %q [%d, +%d] is not inside its parent %q [%d, +%d]",
				s.Name, s.StartUS, s.DurUS, p.Name, p.StartUS, p.DurUS)
		}
	}

	solves := func(name string) float64 { return byName[name].Counters["spice.solves_total"] }
	total := float64(reg.Scope("spice").Counter("solves_total").Value())
	if total == 0 || solves("estimate") != total || solves("stage1")+solves("stage2") != total {
		t.Fatalf("spice.solves_total: estimate %v, stage1 %v + stage2 %v, registry %v",
			solves("estimate"), solves("stage1"), solves("stage2"), total)
	}
}
