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
// Gibbs chain → fit → stage 2) whose links are explicit: a span's parent
// is the span its context carries (StartSpan) or the one it was started
// from (Trace.StartSpan, Span.Child), so concurrent work never shares
// any tree state.
//
// A span started with a registry slices it: the span keeps how much
// each of the registry's counters, and each histogram's count and sum,
// grew while it ran (live while it runs). Repetitive work — SPICE
// solves, Gibbs coordinate updates, stage-2 chunks — only counts into
// the registry and opens no span, so the trace and the metrics exports
// read one set of counters. The slice is the registry's growth over the
// span's interval, whoever counted it: runs that overlap in time need
// registries of their own for their spans to tell them apart.
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

	mu    sync.Mutex
	spans []*Span
	// grafted holds finished spans imported from another process's trace
	// (a worker's lease evaluation), already remapped onto this trace's
	// id space and clock. See Graft.
	grafted []SpanSnapshot
}

// NewTrace returns an empty trace whose clock starts now.
func NewTrace() *Trace { return &Trace{start: time.Now()} }

// Span is one named interval of a trace. Create spans with StartSpan
// (context-aware), Trace.StartSpan or Span.Child; finish them with End.
// A nil *Span is fully inert.
type Span struct {
	trace    *Trace
	reg      *Registry // the registry the span slices; nil records none
	id       int64
	parentID int64
	name     string

	start time.Duration // on the trace's monotonic clock
	end   atomic.Int64  // nanoseconds since trace start; 0 = still running

	mu    sync.Mutex
	attrs map[string]any
	// base is reg's totals at start; End replaces it by counters, the
	// growth up to the end.
	base, counters map[string]float64
}

// newSpan registers a new span on the trace under parent (a root when
// nil), slicing reg, or the parent's registry when reg is nil.
func (t *Trace) newSpan(name string, parent *Span, reg *Registry) *Span {
	s := &Span{trace: t, reg: reg, id: t.nextID.Add(1), name: name}
	if parent != nil {
		s.parentID = parent.id
		if reg == nil {
			s.reg = parent.reg
		}
	}
	s.base = s.reg.totals()
	s.start = time.Since(t.start)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// StartSpan starts a span named name under parent, or a new root when
// parent is nil. A child slices its parent's registry; a root started
// here slices none. Nil-safe (returns nil).
func (t *Trace) StartSpan(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name, parent, nil)
}

// Child starts a sub-span of s that slices s's registry (nil on a nil
// span).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.trace.newSpan(name, s, nil)
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

// End closes the span at the current monotonic time and keeps its
// registry's growth since the start. End is idempotent (the first call
// wins) and nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := int64(time.Since(s.trace.start))
	s.mu.Lock()
	if s.end.Load() == 0 {
		s.counters = growth(s.base, s.reg.totals())
		s.base = nil
		s.end.Store(end)
	}
	s.mu.Unlock()
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

// growth returns how much each total in now grew over base, keeping only
// the totals that changed (nil when none did).
func growth(base, now map[string]float64) map[string]float64 {
	var out map[string]float64
	for k, v := range now {
		b := base[k]
		if math.Float64bits(v) == math.Float64bits(b) {
			continue
		}
		if out == nil {
			out = make(map[string]float64)
		}
		out[k] = v - b
	}
	return out
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
	// Counters is the growth of the span's registry over the span (up
	// to now while it runs), keyed scope.name: each counter, and each
	// histogram's observation count and sum under .count and .sum.
	// Only nonzero growth appears.
	Counters map[string]float64 `json:"counters,omitempty"`
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
		snap.Counters = s.counters
		if s.base != nil {
			snap.Counters = growth(s.base, s.reg.totals())
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
// its counters appear in the event's args next to its attributes.
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
		args := make(map[string]any, len(s.Attrs)+len(s.Counters))
		for k, v := range s.Attrs {
			args[k] = v
		}
		for k, v := range s.Counters {
			args[k] = v
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

// StartSpan starts a pipeline-stage span that slices reg: a child of
// the span in ctx when one is there (slicing the parent's registry when
// reg is nil), else a new root on reg's trace. It returns the derived
// context carrying the new span plus the span itself; with tracing
// disabled everywhere it returns (ctx, nil) without allocating. End the
// returned span when the stage finishes.
func StartSpan(ctx context.Context, reg *Registry, name string) (context.Context, *Span) {
	parent, t := SpanFromContext(ctx), reg.TraceData()
	if parent != nil {
		t = parent.trace
	}
	if t == nil {
		return ctx, nil
	}
	s := t.newSpan(name, parent, reg)
	return ContextWithSpan(ctx, s), s
}
