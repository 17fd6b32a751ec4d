package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing: a hierarchical wall-time breakdown of one run, answering
// "where did the time go inside this estimate" the way the metrics
// registry answers "how much work happened overall".
//
// A Trace collects spans; a Span is one named interval on the trace's
// monotonic clock. Spans form a tree (stage 1 → starting-point search →
// Gibbs chain → fit → stage 2), and each span additionally carries a set
// of named aggregates (SpanAgg) for unbounded repetitive work — stage-2
// evaluation chunks, SPICE solves, Gibbs coordinate updates — where one
// span per occurrence would swamp the trace. Aggregates are a pair of
// atomic adds per observation, so concurrent workers record into a shared
// parent span without locks.
//
// Everything is nil-safe and off by default, matching the rest of the
// package: with no Trace installed on the Registry, StartSpan returns a
// nil *Span, every method of which no-ops without allocating, so traced
// code paths cost one nil check when tracing is disabled.
//
// Finished traces export two ways: span-per-line JSONL (WriteJSONL) and
// the Chrome trace-event format (WriteChromeTrace), which Perfetto and
// chrome://tracing load directly.

// Trace collects the spans of one run. All methods are safe for
// concurrent use and nil-safe.
type Trace struct {
	start time.Time

	nextID atomic.Int64
	// active is the innermost span started via StartSpan and not yet
	// ended — the aggregation target for instrumented layers (the SPICE
	// solver) that run without a context. Pipeline stages are strictly
	// nested and started sequentially, so a swap-on-start /
	// restore-on-end discipline reconstructs the tree.
	active atomic.Pointer[Span]

	mu    sync.Mutex
	spans []*Span
	// grafted holds finished spans imported from another process's trace
	// (a worker's lease evaluation), already remapped onto this trace's
	// id space and clock. See Graft.
	grafted []SpanSnapshot
}

// NewTrace returns an empty trace whose clock starts now.
func NewTrace() *Trace { return &Trace{start: time.Now()} }

// Span is one named interval of a trace. Create spans with
// Registry.StartSpan, StartSpan (context-aware) or Span.Child; finish
// them with End. A nil *Span is fully inert.
type Span struct {
	trace    *Trace
	id       int64
	parentID int64
	name     string

	start time.Duration // on the trace's monotonic clock
	end   atomic.Int64  // nanoseconds since trace start; 0 = still running

	// prevActive restores the trace's active span on End.
	prevActive *Span

	mu    sync.Mutex
	attrs map[string]any
	aggs  []*SpanAgg
}

// SpanAgg aggregates unbounded repetitive child work under a span as an
// atomic count plus total seconds: one aggregate line instead of
// thousands of sub-spans. All methods are nil-safe.
type SpanAgg struct {
	name    string
	count   atomic.Int64
	secBits atomic.Uint64
}

// newSpan registers a new span on the trace.
func (t *Trace) newSpan(name string, parentID int64) *Span {
	s := &Span{
		trace:    t,
		id:       t.nextID.Add(1),
		parentID: parentID,
		name:     name,
		start:    time.Since(t.start),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// StartSpan starts a span named name and marks it the trace's active
// span: the parent is the given parent when non-nil, else the currently
// active span, else the span roots a new tree. Nil-safe (returns nil).
func (t *Trace) StartSpan(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	prev := t.active.Load()
	pid := int64(0)
	switch {
	case parent != nil:
		pid = parent.id
	case prev != nil:
		pid = prev.id
	}
	s := t.newSpan(name, pid)
	s.prevActive = prev
	t.active.Store(s)
	return s
}

// Active returns the innermost running span started via StartSpan (nil
// when none).
func (t *Trace) Active() *Span {
	if t == nil {
		return nil
	}
	return t.active.Load()
}

// Child starts a sub-span of s without activating it (nil on a nil
// span). Use StartSpan for pipeline stages; Child is for side work that
// should not capture solver aggregation.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.trace.newSpan(name, s.id)
}

// ID returns the span's trace-local id (0 on nil) — what a distributed
// trace context carries as the parent span id.
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// StartUS returns the span's start in microseconds on its trace's clock
// (0 on nil).
func (s *Span) StartUS() int64 {
	if s == nil {
		return 0
	}
	return s.start.Microseconds()
}

// EndUS returns the span's end in microseconds on its trace's clock, or
// 0 while the span is still running (and on nil).
func (s *Span) EndUS() int64 {
	if s == nil {
		return 0
	}
	return time.Duration(s.end.Load()).Microseconds()
}

// End closes the span at the current monotonic time and, when the span
// is the trace's active span, restores the previously active one. End is
// idempotent (the first call wins) and nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.end.CompareAndSwap(0, int64(time.Since(s.trace.start)))
	s.trace.active.CompareAndSwap(s, s.prevActive)
}

// SetAttr attaches one key/value annotation to the span (nil-safe).
// Attributes are for low-frequency facts — the method, the coordinate
// system, a stage's sim count — not per-sample data.
func (s *Span) SetAttr(key string, v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = v
	s.mu.Unlock()
}

// Agg returns the span's named aggregate, creating it on first use
// (nil on a nil span). Resolve the handle once outside a hot loop; each
// Observe/Add is then two atomic operations.
func (s *Span) Agg(name string) *SpanAgg {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.aggs {
		if a.name == name {
			return a
		}
	}
	a := &SpanAgg{name: name}
	s.aggs = append(s.aggs, a)
	return a
}

// Observe records one occurrence taking the given seconds.
func (a *SpanAgg) Observe(seconds float64) {
	if a == nil {
		return
	}
	a.count.Add(1)
	atomicAddFloat(&a.secBits, seconds)
}

// Add records n occurrences with no time attached (pure counts, e.g.
// simulation probes inside a coordinate update).
func (a *SpanAgg) Add(n int64) {
	if a == nil {
		return
	}
	a.count.Add(n)
}

// Count returns the number of recorded occurrences (0 on nil).
func (a *SpanAgg) Count() int64 {
	if a == nil {
		return 0
	}
	return a.count.Load()
}

// Seconds returns the total recorded seconds (0 on nil).
func (a *SpanAgg) Seconds() float64 {
	if a == nil {
		return 0
	}
	return math.Float64frombits(a.secBits.Load())
}

// AggSnapshot is one aggregate in a span snapshot.
type AggSnapshot struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds,omitempty"`
}

// SpanSnapshot is one span in a trace snapshot. Times are microseconds on
// the trace's monotonic clock.
type SpanSnapshot struct {
	ID       int64          `json:"id"`
	ParentID int64          `json:"parent,omitempty"`
	Name     string         `json:"name"`
	StartUS  int64          `json:"start_us"`
	DurUS    int64          `json:"dur_us"`
	Running  bool           `json:"running,omitempty"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Aggs     []AggSnapshot  `json:"aggs,omitempty"`
}

// Graft imports finished spans captured by another process's trace
// under the given parent span of this trace: ids are remapped into this
// trace's id space, parent links inside the batch are preserved, and
// spans whose parent is not in the batch attach to parent (or become
// roots when parent is nil). The caller must already have placed each
// snapshot's StartUS on this trace's clock (internal/dist offsets a
// worker's spans by the start of their lease span); Graft clamps
// grafted spans into [minStartUS, maxEndUS] when maxEndUS > 0 so no
// span lands outside its enclosing lease. Attrs maps are retained
// as-is and treated read-only. Returns the number of spans grafted;
// nil-safe.
func (t *Trace) Graft(parent *Span, spans []SpanSnapshot, minStartUS, maxEndUS int64) int {
	if t == nil || len(spans) == 0 {
		return 0
	}
	parentID := int64(0)
	if parent != nil {
		parentID = parent.id
	}
	idMap := make(map[int64]int64, len(spans))
	out := make([]SpanSnapshot, 0, len(spans))
	for _, s := range spans {
		ns := s
		ns.ID = t.nextID.Add(1)
		idMap[s.ID] = ns.ID
		if mapped, ok := idMap[s.ParentID]; ok && s.ParentID != 0 {
			ns.ParentID = mapped
		} else {
			ns.ParentID = parentID
		}
		ns.Running = false
		if maxEndUS > minStartUS {
			if ns.StartUS < minStartUS {
				ns.StartUS = minStartUS
			}
			if ns.StartUS > maxEndUS-1 {
				ns.StartUS = maxEndUS - 1
			}
			if ns.StartUS+ns.DurUS > maxEndUS {
				ns.DurUS = maxEndUS - ns.StartUS
			}
		}
		if ns.DurUS < 1 {
			ns.DurUS = 1
		}
		out = append(out, ns)
	}
	t.mu.Lock()
	t.grafted = append(t.grafted, out...)
	t.mu.Unlock()
	return len(out)
}

// Snapshot returns every span in creation order, locally started spans
// first, then grafted (imported) spans in graft order. Spans still
// running are reported with Running=true and a duration up to now, so a
// live trace (the estimation service's per-job endpoint) is always
// exportable.
func (t *Trace) Snapshot() []SpanSnapshot {
	if t == nil {
		return nil
	}
	now := time.Since(t.start)
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	grafted := append([]SpanSnapshot(nil), t.grafted...)
	t.mu.Unlock()
	out := make([]SpanSnapshot, 0, len(spans)+len(grafted))
	for _, s := range spans {
		end := time.Duration(s.end.Load())
		running := end == 0
		if running {
			end = now
		}
		// Both ends truncate before subtracting, so StartUS+DurUS is
		// exactly EndUS(); truncating the difference instead can end a
		// snapshot a microsecond before the span does.
		snap := SpanSnapshot{
			ID:       s.id,
			ParentID: s.parentID,
			Name:     s.name,
			StartUS:  s.start.Microseconds(),
			DurUS:    end.Microseconds() - s.start.Microseconds(),
			Running:  running,
		}
		s.mu.Lock()
		if len(s.attrs) > 0 {
			snap.Attrs = make(map[string]any, len(s.attrs))
			for k, v := range s.attrs {
				snap.Attrs[k] = sanitizeJSON(v)
			}
		}
		for _, a := range s.aggs {
			snap.Aggs = append(snap.Aggs, AggSnapshot{
				Name: a.name, Count: a.Count(), Seconds: a.Seconds(),
			})
		}
		s.mu.Unlock()
		out = append(out, snap)
	}
	return append(out, grafted...)
}

// WriteJSONL writes the trace as one JSON object per span line, in span
// creation order (nil-safe: writes nothing).
func (t *Trace) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	for _, s := range t.Snapshot() {
		b, err := json.Marshal(s)
		if err != nil {
			return fmt.Errorf("telemetry: marshaling span %q: %w", s.Name, err)
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one complete ("ph":"X") event of the Chrome trace-event
// format, the JSON that Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`  // microseconds
	Dur  int64          `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the trace in Chrome trace-event format
// (JSON object with a "traceEvents" array of complete events), loadable
// in Perfetto or chrome://tracing. Each span becomes one event; the tid
// is the span's depth in the tree so nested stages stack visually, and
// aggregates appear in the event's args.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	snaps := t.Snapshot()
	depth := make(map[int64]int64, len(snaps))
	events := make([]chromeEvent, 0, len(snaps))
	for _, s := range snaps {
		d := int64(0)
		if s.ParentID != 0 {
			d = depth[s.ParentID] + 1
		}
		depth[s.ID] = d
		args := make(map[string]any, len(s.Attrs)+len(s.Aggs))
		for k, v := range s.Attrs {
			args[k] = v
		}
		for _, a := range s.Aggs {
			args[a.Name+"_count"] = a.Count
			if a.Seconds > 0 {
				args[a.Name+"_seconds"] = a.Seconds
			}
		}
		if s.Running {
			args["running"] = true
		}
		if len(args) == 0 {
			args = nil
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", TS: s.StartUS, Dur: maxI64(s.DurUS, 1),
			PID: 1, TID: d, Args: args,
		})
	}
	// Stable presentation: Perfetto sorts internally, but a deterministic
	// byte stream makes traces diffable.
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	out := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// --- Registry integration ---

// SetTrace installs (or, with nil, removes) the trace that StartSpan
// records into.
func (r *Registry) SetTrace(t *Trace) {
	if r == nil {
		return
	}
	r.trace.Store(t)
}

// TraceData returns the installed trace (nil when tracing is off).
func (r *Registry) TraceData() *Trace {
	if r == nil {
		return nil
	}
	return r.trace.Load()
}

// ActiveSpan returns the innermost running span of the installed trace —
// the aggregation target for instrumented layers (the SPICE solver) that
// are called without a context. Nil when tracing is off or no span is
// active; the disabled path is two atomic loads.
func (r *Registry) ActiveSpan() *Span {
	if r == nil {
		return nil
	}
	return r.trace.Load().Active()
}

// StartSpan starts an active span on the registry's trace, parented
// under the currently active span (or a new root). With no trace
// installed (or a nil registry) it returns nil without allocating.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return r.trace.Load().StartSpan(nil, name)
}

// --- Context plumbing ---

// spanKey is the context key spans travel under.
type spanKey struct{}

// ContextWithSpan returns ctx carrying the span. A nil span returns ctx
// unchanged (zero alloc), keeping disabled tracing free on the paths that
// thread contexts through the pipeline.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan starts a pipeline-stage span: a child of the span in ctx
// when one is there, else a span on reg's trace (parented under the
// trace's active span, or a new root). Either way the new span becomes
// the trace's active span until End. It returns the derived context
// carrying the new span plus the span itself; with tracing disabled
// everywhere it returns (ctx, nil) without allocating. End the returned
// span when the stage finishes.
func StartSpan(ctx context.Context, reg *Registry, name string) (context.Context, *Span) {
	if parent := SpanFromContext(ctx); parent != nil {
		s := parent.trace.StartSpan(parent, name)
		return ContextWithSpan(ctx, s), s
	}
	if s := reg.StartSpan(name); s != nil {
		return ContextWithSpan(ctx, s), s
	}
	return ctx, nil
}
