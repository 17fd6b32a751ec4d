// Package telemetry is the run-observability core of the library: an
// allocation-conscious metrics registry (atomic counters, gauges,
// lock-free histograms, monotonic stopwatches) with named scopes, plus a
// structured run-event bus whose events fan out to live subscribers and,
// optionally, to a JSONL event log.
//
// Everything is nil-safe and off by default: a nil *Registry (and every
// handle derived from one) turns all recording operations into no-ops,
// so instrumented hot paths pay only a nil check when telemetry is
// disabled and a single atomic operation when it is enabled. Telemetry
// only observes — it never draws from an RNG or alters control flow — so
// enabling it cannot change an estimate.
//
// The package is stdlib-only. Metrics are exported three ways: a
// human-readable snapshot table (WriteTable), Prometheus text exposition
// format (WritePrometheus, also served over HTTP by ServeDebug next to
// net/http/pprof), and structured JSONL events (the Bus event log).
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is the root of a telemetry namespace: a set of named scopes,
// each holding named counters, gauges and histograms, plus an optional
// event bus. All methods are safe for concurrent use and safe on a nil
// receiver (they no-op).
type Registry struct {
	start time.Time

	// bus is the single event destination (see bus.go): every Emit is
	// published on it.
	bus atomic.Pointer[Bus]

	// trace carries the optional span-tracing layer (see span.go).
	trace atomic.Pointer[Trace]

	mu     sync.RWMutex
	scopes map[string]*Scope // guarded by mu
}

// New returns an empty enabled registry.
func New() *Registry {
	return &Registry{start: time.Now(), scopes: make(map[string]*Scope)}
}

// Enabled reports whether the registry records anything (i.e. is
// non-nil). Instrumented code can use it to skip building event payloads.
func (r *Registry) Enabled() bool { return r != nil }

// Uptime returns the monotonic time since New.
func (r *Registry) Uptime() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// Scope returns the named scope, creating it on first use. A nil
// registry returns a nil scope, whose metric constructors in turn return
// nil handles — the whole chain stays no-op.
func (r *Registry) Scope(name string) *Scope {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	s := r.scopes[name]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s = r.scopes[name]; s == nil {
		s = &Scope{
			name:     name,
			counters: make(map[string]*Counter),
			gauges:   make(map[string]*Gauge),
			hists:    make(map[string]*Histogram),
		}
		r.scopes[name] = s
	}
	return s
}

// SetBus installs (or, with nil, removes) the event bus that Emit
// publishes to. Registries may share one bus (or chain buses with
// WithParent); its sequence numbers then order events across all of
// them. The registry does not own the bus — closing it (and dumping its
// flight ring) stays the caller's job.
func (r *Registry) SetBus(b *Bus) {
	if r == nil {
		return
	}
	r.bus.Store(b)
}

// Bus returns the installed event bus, or nil.
func (r *Registry) Bus() *Bus {
	if r == nil {
		return nil
	}
	return r.bus.Load()
}

// Emit publishes one structured event on the installed bus (no-op
// without one). Keys "seq", "t_ms" and "event" are reserved for the
// envelope; fields must not be mutated after the call.
func (r *Registry) Emit(event string, fields map[string]any) {
	if r == nil {
		return
	}
	r.bus.Load().Publish(event, fields)
}

// DropScope removes the named scope and every metric in it from the
// registry, so exports (Snapshot, WritePrometheus, WriteTable) no
// longer mention it. Existing handles into the scope keep working —
// they just record into a detached scope — so dropping is always safe,
// merely invisible. Used to unregister per-job metrics when a finished
// job is removed from the job registry.
func (r *Registry) DropScope(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.scopes, name)
}

// scopeNames returns the scope names in sorted order.
func (r *Registry) scopeNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.scopes))
	for n := range r.scopes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Scope is a named metric namespace inside a Registry.
type Scope struct {
	name string

	mu       sync.RWMutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu
}

// Counter returns the named counter, creating it on first use (nil on a
// nil scope). By Prometheus convention counter names end in "_total".
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	c := s.counters[name]
	s.mu.RUnlock()
	if c != nil {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c = s.counters[name]; c == nil {
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use (nil on a nil
// scope).
func (s *Scope) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	g := s.gauges[name]
	s.mu.RUnlock()
	if g != nil {
		return g
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if g = s.gauges[name]; g == nil {
		g = &Gauge{}
		s.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (nil on a nil scope). bounds must be
// sorted ascending; an implicit +Inf bucket is appended. Later calls
// with the same name reuse the existing histogram and ignore bounds.
func (s *Scope) Histogram(name string, bounds []float64) *Histogram {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	h := s.hists[name]
	s.mu.RUnlock()
	if h != nil {
		return h
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h = s.hists[name]; h == nil {
		h = newHistogram(bounds)
		s.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing atomic count. The zero value is
// ready to use; all methods are nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.Add(1)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically stored float64 level. The zero value is ready
// to use; all methods are nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored level (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}
