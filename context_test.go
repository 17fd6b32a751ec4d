package repro

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/surrogate"
)

// slowMetric burns a few microseconds of CPU per simulation (spinning,
// not sleeping — timer granularity would inflate a 64k-sample chunk far
// past the drain bound) so a mid-run cancellation lands while the
// estimator is still consuming budget.
//
// started, when set, is closed once the first simulation has begun, so a
// test can cancel only after the run has some cost to report.
type slowMetric struct {
	m       Metric
	spin    int
	once    sync.Once
	started chan struct{}
}

func (s *slowMetric) Dim() int { return s.m.Dim() }
func (s *slowMetric) Value(x []float64) float64 {
	if s.started != nil {
		s.once.Do(func() { close(s.started) })
	}
	v := 1.0
	for i := 0; i < s.spin; i++ {
		v = math.Sqrt(v + float64(i))
	}
	if v < 0 {
		panic("unreachable")
	}
	return s.m.Value(x)
}

// cancelOptions gives every method a budget far beyond what fits in the
// test's cancellation window, so only a working ctx check can return.
func cancelOptions(m Method) Options {
	return Options{Method: m, K: 1 << 18, N: 1 << 22, Seed: 1, Workers: 2}
}

// Every method must return promptly with context.Canceled — and its
// partial simulation cost — when cancelled mid-run.
func TestEstimateContextCancelAllMethods(t *testing.T) {
	for _, m := range AllMethods() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			lin := &surrogate.Linear{W: []float64{1, 1}, B: 3}
			slow := &slowMetric{m: lin, spin: 2000, started: make(chan struct{})}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Cancel once the first simulation has run (a fixed timer
			// can fire before it under load, leaving no partial cost).
			// The deferred cancel and the timeout keep the goroutine
			// from outliving the test.
			go func() {
				select {
				case <-slow.started:
					time.Sleep(30 * time.Millisecond)
				case <-ctx.Done():
				case <-time.After(30 * time.Second):
				}
				cancel()
			}()
			start := time.Now()
			res, err := EstimateContext(ctx, slow, cancelOptions(m))
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			// Generous bound (slow CI, -race): the budgets above would
			// take minutes uncancelled, so finishing inside it proves
			// the cancel cut the run short within a chunk.
			if elapsed > 30*time.Second {
				t.Fatalf("cancel took %v, not chunk-prompt", elapsed)
			}
			if res == nil {
				t.Fatal("cancelled run must still report partial cost")
			}
			if res.TotalSims <= 0 {
				t.Fatalf("partial TotalSims = %d, want > 0", res.TotalSims)
			}
			if res.Pf != 0 || res.N != 0 {
				t.Fatalf("cancelled result must carry cost only, got Pf=%v N=%d", res.Pf, res.N)
			}
		})
	}
}

// An expired deadline surfaces as context.DeadlineExceeded with the
// same partial-cost contract.
func TestEstimateContextDeadline(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 3}
	slow := &slowMetric{m: lin, spin: 2000}
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	res, err := EstimateContext(ctx, slow, cancelOptions(GS))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if res == nil || res.TotalSims <= 0 {
		t.Fatalf("deadline abort must report partial cost, got %+v", res)
	}
}

// An uncancelled EstimateContext must be bit-identical to Estimate for
// every worker count: the context checks sit between chunks and never
// consume randomness.
func TestEstimateContextDeterminism(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 4.5}
	for _, m := range AllMethods() {
		opts := Options{Method: m, Seed: 11, K: 400, N: 4000}
		if m == Subset {
			opts.K = 500 // particles; the ladder needs p0·K ≥ 2
		}
		workerSets := []int{1, 3}
		opts.Workers = workerSets[0]
		base, err := Estimate(lin, opts)
		if err != nil {
			t.Fatalf("%s: baseline: %v", m, err)
		}
		for _, w := range workerSets {
			o := opts
			o.Workers = w
			ctx, cancel := context.WithCancel(context.Background())
			res, err := EstimateContext(ctx, lin, o)
			cancel()
			if err != nil {
				t.Fatalf("%s workers=%d: %v", m, w, err)
			}
			if res.Pf != base.Pf || res.N != base.N || res.TotalSims != base.TotalSims {
				t.Fatalf("%s workers=%d: Pf=%v N=%d sims=%d, want Pf=%v N=%d sims=%d",
					m, w, res.Pf, res.N, res.TotalSims, base.Pf, base.N, base.TotalSims)
			}
		}
	}
}

// Validate must report every out-of-range field in one error.
func TestOptionsValidateAllAtOnce(t *testing.T) {
	bad := Options{
		Method: Method("bogus"), K: -1, N: -2, Target: -0.5,
		TraceEvery: -3, Workers: -4, Mixture: -5,
		StartPoint: []float64{0, math.Inf(1)},
	}
	err := bad.Validate()
	if err == nil {
		t.Fatal("expected validation error")
	}
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("must wrap ErrInvalidOptions: %v", err)
	}
	if !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("bad method must wrap ErrUnknownMethod: %v", err)
	}
	msg := err.Error()
	for _, field := range []string{"Method", "K:", "N:", "Target:", "TraceEvery:", "Workers:", "Mixture:", "StartPoint[1]"} {
		if !strings.Contains(msg, field) {
			t.Fatalf("message missing %q: %s", field, msg)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options must validate: %v", err)
	}
	if _, err := Estimate(&surrogate.Linear{W: []float64{1}, B: 3}, Options{K: -1}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("Estimate must reject invalid options: %v", err)
	}
}

// Subset simulation has no sampling stage to stop early, so a Target is
// a field error rather than a silently ignored option.
func TestOptionsValidateSubsetTarget(t *testing.T) {
	err := Options{Method: Subset, Target: 0.1}.Validate()
	if !errors.Is(err, ErrInvalidOptions) || !strings.Contains(err.Error(), "Target:") {
		t.Fatalf("subset with a target must fail on the Target field: %v", err)
	}
	if err := (Options{Method: Subset}).Validate(); err != nil {
		t.Fatalf("subset without a target must validate: %v", err)
	}
}

// The method set and the workload registry are what the estimation
// service's introspection endpoints serve.
func TestMethodSetAndWorkloadRegistry(t *testing.T) {
	if len(AllMethods()) != 7 {
		t.Fatalf("AllMethods lists %d methods", len(AllMethods()))
	}
	for _, m := range AllMethods() {
		if !m.Valid() {
			t.Fatalf("%s must be valid", m)
		}
		if m.Describe() == "" {
			t.Fatalf("%s has no description", m)
		}
		if got, err := ParseMethod(m.String()); err != nil || got != m {
			t.Fatalf("round-trip %s: %v", m, err)
		}
	}
	if Method("bogus").Valid() {
		t.Fatal("bogus must be invalid")
	}
	if _, err := ParseMethod("bogus"); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("ParseMethod must wrap ErrUnknownMethod: %v", err)
	}

	ws := Workloads()
	wantDims := map[string]int{"rnm": 6, "wnm": 6, "readcurrent": 2, "dualread": 2, "access": 2}
	if len(ws) != len(wantDims) {
		t.Fatalf("Workloads lists %d entries", len(ws))
	}
	for i, w := range ws {
		if wantDims[w.Name] != w.Dim {
			t.Fatalf("%s: dim %d, want %d", w.Name, w.Dim, wantDims[w.Name])
		}
		if w.Description == "" || w.New == nil {
			t.Fatalf("%s: incomplete registry entry", w.Name)
		}
		if WorkloadNames()[i] != w.Name {
			t.Fatal("WorkloadNames order must match Workloads")
		}
		metric, err := WorkloadByName(w.Name)
		if err != nil || metric.Dim() != w.Dim {
			t.Fatalf("WorkloadByName(%s): %v", w.Name, err)
		}
	}
	if _, err := WorkloadByName("bogus"); !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("must wrap ErrUnknownWorkload: %v", err)
	}
}
