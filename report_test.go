package repro

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/surrogate"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func TestRunReportAttached(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 6.5}
	res, err := Estimate(lin, Options{Method: GS, K: 300, N: 4000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep == nil {
		t.Fatal("successful estimate must carry a run-report")
	}
	if rep.Method != "g-s" || rep.Seed != 11 {
		t.Fatalf("report identity: method %q seed %d", rep.Method, rep.Seed)
	}
	if rep.Pf != res.Pf || rep.TotalSims != res.TotalSims {
		t.Fatal("report must restate the result's estimate and cost")
	}
	if rep.RelErr99 == nil {
		t.Fatal("converged run must report a finite relerr99")
	}
	if rep.RHat == nil || *rep.RHat <= 0 {
		t.Fatalf("Gibbs run must report a split R-hat, got %v (note %q)", rep.RHat, rep.RHatNote)
	}
	if rep.ChainESS == nil || *rep.ChainESS <= 0 {
		t.Fatal("Gibbs run must report a chain ESS")
	}
	if rep.WeightESS <= 0 {
		t.Fatal("IS run must report a positive weight ESS")
	}
	if rep.MaxWeightFrac <= 0 || rep.MaxWeightFrac > 1 {
		t.Fatalf("max weight fraction out of range: %v", rep.MaxWeightFrac)
	}
	if rep.SimsTo90 <= 0 {
		t.Fatal("converged run must project a sims-to-90-percent-confidence figure")
	}
	if rep.TotalSeconds <= 0 || rep.Stage1Seconds <= 0 || rep.Stage2Seconds <= 0 {
		t.Fatalf("wall-time split missing: total %v stage1 %v stage2 %v",
			rep.TotalSeconds, rep.Stage1Seconds, rep.Stage2Seconds)
	}
}

func TestRunReportNoChainForMC(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 2}
	res, err := Estimate(lin, Options{Method: MC, N: 5000, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep == nil {
		t.Fatal("MC estimate must carry a run-report")
	}
	if rep.RHat != nil || rep.ChainESS != nil {
		t.Fatal("MC has no Gibbs chain: R-hat and chain ESS must be absent")
	}
}

func TestRunReportNoFailures(t *testing.T) {
	// A wall at 40σ: plain MC sees no failures — the report must say so
	// without non-finite JSON values.
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 40}
	res, err := Estimate(lin, Options{Method: MC, N: 2000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep == nil {
		t.Fatal("report missing")
	}
	if rep.RelErr99 != nil {
		t.Fatal("no-failure run has unbounded relerr99: field must be null")
	}
	if rep.SimsTo90 != 0 {
		t.Fatal("no estimate to project from: SimsTo90 must be 0")
	}
	found := false
	for _, w := range rep.Warnings {
		if strings.Contains(w, "no failures") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a no-failures warning, got %v", rep.Warnings)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("report must always be JSON-serializable: %v", err)
	}
}

// An until-target run that spends its whole cap with the error bar still
// above the target must say so instead of returning quietly.
func TestRunReportWarnsOnTargetCap(t *testing.T) {
	hard := &surrogate.Linear{W: []float64{1, 0}, B: 4} // Pf ≈ 3.2e-5: out of reach for 2000 MC samples
	easy := &surrogate.Linear{W: []float64{1, 0}, B: 2}
	capWarning := func(metric Metric, n int) bool {
		t.Helper()
		res, err := Estimate(metric, Options{Method: MC, Target: 0.1, N: n, Seed: 14})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range res.Report.Warnings {
			if strings.Contains(w, "cap") {
				return true
			}
		}
		return false
	}
	if !capWarning(hard, 2000) {
		t.Fatal("a run that hit its cap above the target must warn")
	}
	if capWarning(easy, 1<<20) {
		t.Fatal("a run that reached its target must not warn about the cap")
	}
}

// The deterministic part of the report must be byte-identical across
// worker counts for a fixed seed — the property the bench harness and
// the job service lean on.
func TestRunReportDeterministicAcrossWorkers(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 6.5}
	render := func(workers int) string {
		t.Helper()
		res, err := Estimate(lin, Options{Method: GS, K: 200, N: 3000, Seed: 21, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Report.Deterministic().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one, four, seven := render(1), render(4), render(7)
	if one != four || one != seven {
		t.Fatalf("report differs across worker counts:\n1: %s\n4: %s\n7: %s", one, four, seven)
	}
	if strings.Contains(one, `"stage1_seconds": 0.0`) {
		t.Fatalf("deterministic render should zero timings cleanly: %s", one)
	}
}

func TestRunReportWriteText(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 6.5}
	res, err := Estimate(lin, Options{Method: GC, K: 200, N: 3000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Report.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"run report (g-c, seed 31)", "split R-hat", "weights", "cost", "stage1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text report missing %q:\n%s", want, out)
		}
	}
}

func TestHillTailIndex(t *testing.T) {
	if _, ok := hillTailIndex([]float64{3, 2, 1}); ok {
		t.Fatal("fewer than five weights must not estimate a tail index")
	}
	if _, ok := hillTailIndex([]float64{2, 2, 2, 2, 2}); ok {
		t.Fatal("equal weights have no measurable tail")
	}
	// Exact Pareto order statistics w_i = (k/i)^(1/α) with w_k = 1: the
	// Hill estimator recovers α exactly because
	// Σ ln(w_i/w_k) = (1/α)·Σ ln(k/i).
	const alpha = 1.5
	k := 10
	top := make([]float64, k)
	sum := 0.0
	for i := range top {
		top[i] = math.Pow(float64(k)/float64(i+1), 1/alpha)
		if i < k-1 {
			sum += math.Log(float64(k) / float64(i+1))
		}
	}
	got, ok := hillTailIndex(top)
	if !ok {
		t.Fatal("tail index expected")
	}
	want := float64(k-1) / (sum / alpha)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("hill = %v, want %v", got, want)
	}
}

func TestSimsTo90Projection(t *testing.T) {
	// Already past the bar: z90·stderr < 0.1·pf ⇒ projection < N.
	res := &Result{Pf: 1e-6, StdErr: 1e-8, N: 10000, Stage1Sims: 500}
	got := simsTo90(res)
	ratio := z90 * 1e-8 / (0.1 * 1e-6)
	want := int64(500) + int64(math.Ceil(10000*ratio*ratio))
	if got != want {
		t.Fatalf("simsTo90 = %d, want %d", got, want)
	}
	if simsTo90(&Result{Pf: 0, StdErr: 1, N: 100}) != 0 {
		t.Fatal("zero estimate must project 0")
	}
	if simsTo90(&Result{Pf: 1e-6, StdErr: math.Inf(1), N: 100}) != 0 {
		t.Fatal("infinite stderr must project 0")
	}
}

// TestRunReportChainESSMatchesTelemetry requires the report's chain ESS
// to be the value the chain telemetry publishes, bit for bit: the
// gibbs_chain_ess gauge and the gibbs.chain event's ess both sum each
// chain's own ESS. dualread seed 2 is a run whose two chains sit in
// different lobes, where the ESS of the pool taken as one chain reads
// less than half that sum.
func TestRunReportChainESSMatchesTelemetry(t *testing.T) {
	for _, m := range []Method{GS, GC} {
		t.Run(string(m), func(t *testing.T) {
			reg := NewTelemetry()
			var buf strings.Builder
			reg.SetBus(telemetry.NewLogBus(0, &buf))
			res, err := Estimate(DualReadCurrentWorkload(), Options{
				Method: m, K: 1000, N: 2000, Seed: 2, Workers: 2, Telemetry: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Report.ChainESS == nil {
				t.Fatal("Gibbs run must report a chain ESS")
			}
			got := *res.Report.ChainESS
			gauge := reg.Scope(wire.ScopeGibbs).Gauge("chain_ess").Value()
			if math.Float64bits(got) != math.Float64bits(gauge) {
				t.Fatalf("report chain_ess %v, gibbs_chain_ess gauge %v", got, gauge)
			}
			var events []float64
			for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
				var ev struct {
					Event string   `json:"event"`
					ESS   *float64 `json:"ess"`
				}
				if err := json.Unmarshal([]byte(line), &ev); err != nil {
					t.Fatal(err)
				}
				if ev.Event == wire.EvGibbsChain && ev.ESS != nil {
					events = append(events, *ev.ESS)
				}
			}
			if len(events) != 1 || math.Float64bits(events[0]) != math.Float64bits(got) {
				t.Fatalf("report chain_ess %v, gibbs.chain event ess %v", got, events)
			}
		})
	}
}
