package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// toy shrinks a workload to smoke-test size: a chain of 200 samples and
// a stage 2 of at most 2000, one run (20 requests for serve workloads).
// Target runs aim at a looser RelErr99 so that a 200-sample fit still
// converges under the 2000 cap.
func toy(w workload) (workload, int) {
	w.n = 2000
	if w.serve {
		return w, 20
	}
	w.k = 200
	if w.target > 0 {
		w.target = 0.3
	}
	return w, 1
}

// TestWorkloadsPrintEveryMetric runs every workload at toy size, untraced
// and traced, and checks that each passes its output checks and prints
// exactly the metrics BENCHMARK.json lists, with their units.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for i, sw := range s.Workloads {
		if sw.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, sw.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		tw, runs := toy(w)
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			var log bytes.Buffer
			m, err := measure(context.Background(), tw, 1, runs, traced, t.TempDir(), &log)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !m.Correct || m.Failed != 0 || m.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d\n%s",
					w.name, traced, m.Correct, m.Attempted, m.Failed, log.String())
			}
			got := printed(t, m)
			if len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%t: printed %d metrics, BENCHMARK.json lists %d", w.name, traced, len(got.Metrics), len(want))
			}
			shares := 0.0
			for _, sm := range want {
				v, ok := got.Metrics[sm.Name]
				if !ok || v.Unit != sm.Unit {
					t.Errorf("%s traced=%t: metric %s printed as %+v, want unit %s", w.name, traced, sm.Name, v, sm.Unit)
				}
				if strings.HasSuffix(sm.Name, "_share") {
					shares += v.Value
				}
			}
			if traced && math.Abs(shares-1) > maxGlueShare {
				t.Errorf("%s: layer self-time shares sum to %v, want 1 within %v", w.name, shares, maxGlueShare)
			}
		}
	}
}

// printed writes m as the benchmark prints it and parses the last line.
func printed(t *testing.T, m *measurement) result {
	t.Helper()
	var out bytes.Buffer
	if err := m.write(&out); err != nil {
		t.Fatal(err)
	}
	var last string
	for sc := bufio.NewScanner(&out); sc.Scan(); {
		last = sc.Text()
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	return r
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the spread checks use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 4, 8, 16}, [3]float64{1.5, 4, 12}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestJudge covers the compare verdicts.
func TestJudge(t *testing.T) {
	lower := specMetric{Name: "latency_p50_s", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "sims_per_s", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		a, b []float64
		sm   specMetric
		want string
	}{
		{[]float64{1, 1.01, 0.99}, []float64{1.02, 1.03, 1.01}, lower, "ok"},
		{[]float64{1, 1.01, 0.99}, []float64{1.2, 1.21, 1.19}, lower, "REGRESSION"},
		{[]float64{1, 1.01, 0.99}, []float64{0.8, 0.81, 0.79}, higher, "REGRESSION"},
		{[]float64{1, 1.5, 0.7}, []float64{1.2, 1.21, 1.19}, lower, "unresolved"},
		{[]float64{1, 1.5, 0.7}, []float64{0.5, 0.6, 0.4}, lower, "better"},
	} {
		if got, _ := judge(c.a, c.b, c.sm); got != c.want {
			t.Errorf("judge(%v, %v, %s) = %s, want %s", c.a, c.b, c.sm.Better, got, c.want)
		}
	}
}
