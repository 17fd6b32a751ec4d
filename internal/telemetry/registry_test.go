package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// TestNilSafety exercises the whole nil chain: a nil registry hands out
// nil scopes, nil scopes hand out nil metrics, and every operation on
// them is a no-op instead of a panic. This is the contract that lets
// instrumented call sites skip "enabled?" checks entirely.
func TestNilSafety(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	s := r.Scope("x")
	if s != nil {
		t.Fatal("nil registry returned a live scope")
	}
	c := s.Counter("c")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter holds a value")
	}
	g := s.Gauge("g")
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge holds a value")
	}
	h := s.Histogram("h", ExpBuckets(1, 2, 4))
	h.Observe(1)
	sw := h.Start()
	sw.Stop()
	if h.Count() != 0 || h.Buckets() != nil {
		t.Fatal("nil histogram holds observations")
	}
	r.Emit("event", map[string]any{"k": 1})
	r.SetBus(nil)
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil registry snapshot = %v", got)
	}
	r.WriteTable(&strings.Builder{})
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
}

// TestScopeAndMetricIdentity verifies that repeated lookups return the
// same underlying metric, so handles can be cached anywhere.
func TestScopeAndMetricIdentity(t *testing.T) {
	r := New()
	if r.Scope("a") != r.Scope("a") {
		t.Fatal("same scope name gave different scopes")
	}
	s := r.Scope("a")
	if s.Counter("c") != s.Counter("c") {
		t.Fatal("same counter name gave different counters")
	}
	if s.Gauge("g") != s.Gauge("g") {
		t.Fatal("same gauge name gave different gauges")
	}
	if s.Histogram("h", ExpBuckets(1, 2, 4)) != s.Histogram("h", nil) {
		t.Fatal("same histogram name gave different histograms")
	}
}

// TestConcurrentCounters hammers one counter, one gauge and one
// histogram from many goroutines; run under -race this is the
// thread-safety proof, and the final counter/histogram totals must be
// exact (atomic, not lossy).
func TestConcurrentCounters(t *testing.T) {
	r := New()
	s := r.Scope("load")
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			// Resolve handles concurrently too: scope/metric creation
			// must be safe against itself.
			c := r.Scope("load").Counter("ops")
			g := s.Gauge("level")
			h := s.Histogram("lat", ExpBuckets(1, 10, 4))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(id))
				h.Observe(float64(i%1000) + 0.5)
			}
		}(w)
	}
	wg.Wait()
	if got := s.Counter("ops").Value(); got != workers*perWorker {
		t.Fatalf("counter lost updates: got %d want %d", got, workers*perWorker)
	}
	h := s.Histogram("lat", nil)
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram lost observations: got %d want %d", h.Count(), workers*perWorker)
	}
	var inBuckets int64
	for _, b := range h.Buckets() {
		inBuckets += b.Count
	}
	if inBuckets != h.Count() {
		t.Fatalf("bucket sum %d != count %d", inBuckets, h.Count())
	}
	lvl := s.Gauge("level").Value()
	if lvl < 0 || lvl >= workers {
		t.Fatalf("gauge outside any written value: %v", lvl)
	}
}

// TestHotPathAllocs is the overhead guardrail in its non-flaky form:
// the enabled hot-path operations must not allocate at all, and the
// disabled (nil) path must not either. Timing-based gates are flaky in
// CI; a zero-allocation assertion is deterministic and is what keeps
// "only an atomic add when enabled" honest.
func TestHotPathAllocs(t *testing.T) {
	r := New()
	s := r.Scope("hot")
	c := s.Counter("c")
	g := s.Gauge("g")
	h := s.Histogram("h", ExpBuckets(1e-6, 10, 7))
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(1.5) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3e-4) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v per op", n)
	}
	var nilC *Counter
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilC.Inc(); nilH.Observe(1) }); n != 0 {
		t.Errorf("nil-receiver ops allocate %v per op", n)
	}
}
