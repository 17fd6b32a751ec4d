package repro

import (
	"testing"

	"repro/internal/sram"
)

// scalarMetric hides the sram metric's ValueBatch fast path so the
// facade sees a plain scalar mc.Metric: each group the evaluator hands
// to the estimators' mc.Counter then falls back to Value sample by
// sample instead of one batched engine call.
type scalarMetric struct{ m *sram.Metric }

func (s scalarMetric) Dim() int                  { return s.m.Dim() }
func (s scalarMetric) Value(x []float64) float64 { return s.m.Value(x) }

// TestMethodsBitIdenticalAcrossWorkersAndBatching is the end-to-end
// equivalence claim of the batched kernel: every estimation method, run
// on a real SPICE workload, must report bit-identical results at worker
// counts 1, 4 and 8 — and the same bits again when the batch kernel is
// hidden entirely and every sample is solved one at a time. The batch
// kernel is a pure throughput optimization; no published number may
// move. Each method runs the static read-current workload and the
// transient access-time workload, which takes the same path through the
// one sram engine; the transient one is skipped under -short.
func TestMethodsBitIdenticalAcrossWorkersAndBatching(t *testing.T) {
	workloads := []struct {
		name   string
		metric *sram.Metric
	}{
		{"readcurrent", sram.ReadCurrentWorkload()},
		{"access", sram.AccessTimeWorkload()},
	}
	for _, method := range AllMethods() {
		t.Run(string(method), func(t *testing.T) {
			t.Parallel()
			for _, w := range workloads {
				t.Run(w.name, func(t *testing.T) {
					if testing.Short() && w.name == "access" {
						t.Skip("transient workload skipped under -short")
					}
					methodBitIdentical(t, method, w.metric)
				})
			}
		})
	}
}

func methodBitIdentical(t *testing.T, method Method, metric *sram.Metric) {
	base := Options{Method: method, Seed: 42, K: 300, N: 1500}
	var ref *Result
	for _, w := range []int{1, 4, 8} {
		o := base
		o.Workers = w
		res, err := Estimate(metric, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		compareResults(t, ref, res, "workers", w)
	}
	o := base
	o.Workers = 4
	res, err := Estimate(scalarMetric{metric}, o)
	if err != nil {
		t.Fatalf("scalar-only: %v", err)
	}
	compareResults(t, ref, res, "scalar-only workers", 4)
}

// compareResults requires exact (==) agreement on every published
// estimate and cost field.
func compareResults(t *testing.T, want, got *Result, label string, v int) {
	t.Helper()
	if got.Pf != want.Pf {
		t.Fatalf("%s=%d: Pf %v != %v", label, v, got.Pf, want.Pf)
	}
	if got.StdErr != want.StdErr {
		t.Fatalf("%s=%d: StdErr %v != %v", label, v, got.StdErr, want.StdErr)
	}
	if got.N != want.N || got.Failures != want.Failures {
		t.Fatalf("%s=%d: N/Failures %d/%d != %d/%d", label, v, got.N, got.Failures, want.N, want.Failures)
	}
	if got.TotalSims != want.TotalSims || got.Stage1Sims != want.Stage1Sims || got.Stage2Sims != want.Stage2Sims {
		t.Fatalf("%s=%d: sims %d/%d/%d != %d/%d/%d", label, v,
			got.TotalSims, got.Stage1Sims, got.Stage2Sims,
			want.TotalSims, want.Stage1Sims, want.Stage2Sims)
	}
}
