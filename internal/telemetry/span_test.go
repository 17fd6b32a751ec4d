package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return data
}

// TestSpanTree checks the swap-on-start / restore-on-end discipline:
// nested StartSpan calls build a parent chain, End restores the
// previously active span, and Child spans never capture activation.
func TestSpanTree(t *testing.T) {
	tr := NewTrace()
	root := tr.StartSpan(nil, "estimate")
	if got := tr.Active(); got != root {
		t.Fatalf("active after root start = %v, want root", got)
	}

	stage1 := tr.StartSpan(nil, "stage1")
	if got := tr.Active(); got != stage1 {
		t.Fatalf("active = %v, want stage1", got)
	}
	side := stage1.Child("fit")
	if got := tr.Active(); got != stage1 {
		t.Fatal("Child must not activate")
	}
	side.End()
	stage1.End()
	if got := tr.Active(); got != root {
		t.Fatal("End(stage1) must restore root as active")
	}
	stage2 := tr.StartSpan(nil, "stage2")
	stage2.End()
	root.End()
	if got := tr.Active(); got != nil {
		t.Fatalf("active after all ends = %v, want nil", got)
	}

	snaps := tr.Snapshot()
	if len(snaps) != 4 {
		t.Fatalf("got %d spans, want 4", len(snaps))
	}
	byName := map[string]SpanSnapshot{}
	for _, s := range snaps {
		byName[s.Name] = s
	}
	if byName["estimate"].ParentID != 0 {
		t.Fatalf("estimate parent = %d, want 0", byName["estimate"].ParentID)
	}
	for _, name := range []string{"stage1", "stage2"} {
		if byName[name].ParentID != byName["estimate"].ID {
			t.Fatalf("%s parent = %d, want estimate (%d)", name, byName[name].ParentID, byName["estimate"].ID)
		}
	}
	if byName["fit"].ParentID != byName["stage1"].ID {
		t.Fatalf("fit parent = %d, want stage1 (%d)", byName["fit"].ParentID, byName["stage1"].ID)
	}
	for _, s := range snaps {
		if s.Running {
			t.Fatalf("span %s still running after End", s.Name)
		}
		if s.DurUS < 0 {
			t.Fatalf("span %s negative duration %d", s.Name, s.DurUS)
		}
	}
}

// TestSpanEndIdempotent checks that the first End wins and a second End
// does not clobber the recorded end time or the active chain.
func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTrace()
	a := tr.StartSpan(nil, "a")
	b := tr.StartSpan(nil, "b")
	b.End()
	first := b.end.Load()
	time.Sleep(2 * time.Millisecond)
	b.End()
	if b.end.Load() != first {
		t.Fatal("second End overwrote the end time")
	}
	if tr.Active() != a {
		t.Fatal("double End corrupted the active chain")
	}
	a.End()
}

// TestSpanAgg checks aggregate counts and seconds, including handle
// reuse by name.
func TestSpanAgg(t *testing.T) {
	tr := NewTrace()
	s := tr.StartSpan(nil, "stage2")
	agg := s.Agg("spice.solve")
	agg.Observe(0.5)
	agg.Observe(0.25)
	s.Agg("spice.solve").Add(3) // same aggregate, by name
	s.Agg("probes").Add(10)
	s.End()

	if got := agg.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := agg.Seconds(); got != 0.75 {
		t.Fatalf("seconds = %v, want 0.75", got)
	}
	snap := tr.Snapshot()[0]
	if len(snap.Aggs) != 2 {
		t.Fatalf("got %d aggs, want 2", len(snap.Aggs))
	}
	if snap.Aggs[0].Name != "spice.solve" || snap.Aggs[0].Count != 5 || snap.Aggs[0].Seconds != 0.75 {
		t.Fatalf("agg snapshot = %+v", snap.Aggs[0])
	}
	if snap.Aggs[1].Name != "probes" || snap.Aggs[1].Count != 10 {
		t.Fatalf("agg snapshot = %+v", snap.Aggs[1])
	}
}

// TestTraceWriteJSONL checks the span-per-line export parses back.
func TestTraceWriteJSONL(t *testing.T) {
	tr := NewTrace()
	root := tr.StartSpan(nil, "run")
	root.SetAttr("method", "g-s")
	child := tr.StartSpan(nil, "chain")
	child.Agg("update").Add(7)
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []SpanSnapshot
	for sc.Scan() {
		var s SpanSnapshot
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, s)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0].Name != "run" || lines[0].Attrs["method"] != "g-s" {
		t.Fatalf("root line = %+v", lines[0])
	}
	if lines[1].Name != "chain" || len(lines[1].Aggs) != 1 || lines[1].Aggs[0].Count != 7 {
		t.Fatalf("chain line = %+v", lines[1])
	}
}

// TestTraceWriteChromeTrace checks the Chrome trace-event export: a
// traceEvents array of complete events whose tids encode tree depth and
// whose args carry attrs and aggregates.
func TestTraceWriteChromeTrace(t *testing.T) {
	tr := NewTrace()
	root := tr.StartSpan(nil, "estimate")
	root.SetAttr("metric", "readcurrent")
	stage := tr.StartSpan(nil, "stage2")
	stage.Agg("chunk").Observe(0.001)
	stage.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   *int64         `json:"ts"`
			Dur  int64          `json:"dur"`
			PID  int            `json:"pid"`
			TID  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v\n%s", err, buf.String())
	}
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(out.TraceEvents))
	}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %s ph = %q, want X", ev.Name, ev.Ph)
		}
		if ev.TS == nil {
			t.Fatalf("event %s missing ts", ev.Name)
		}
		if ev.Dur < 1 {
			t.Fatalf("event %s dur = %d, want >= 1", ev.Name, ev.Dur)
		}
	}
	byName := map[string]int64{}
	for _, ev := range out.TraceEvents {
		byName[ev.Name] = ev.TID
	}
	if byName["estimate"] != 0 || byName["stage2"] != 1 {
		t.Fatalf("tids = %v, want estimate:0 stage2:1", byName)
	}
	for _, ev := range out.TraceEvents {
		if ev.Name == "stage2" {
			if ev.Args["chunk_count"] != float64(1) {
				t.Fatalf("stage2 args = %v", ev.Args)
			}
		}
	}
}

// TestTraceSnapshotRunning checks that a live trace exports running
// spans with Running=true instead of blocking or dropping them.
func TestTraceSnapshotRunning(t *testing.T) {
	tr := NewTrace()
	tr.StartSpan(nil, "run")
	snaps := tr.Snapshot()
	if len(snaps) != 1 || !snaps[0].Running {
		t.Fatalf("snapshot = %+v, want one running span", snaps)
	}
}

// TestSnapshotEndMatchesEndUS: a snapshot's StartUS+DurUS must be the
// span's EndUS() exactly. A span from 1.9 µs to 3.1 µs truncates to
// [1, 3]; truncating the 1.2 µs difference instead would end it at 2,
// and a grafted span clamped to EndUS() would then escape its parent.
func TestSnapshotEndMatchesEndUS(t *testing.T) {
	tr := NewTrace()
	s := tr.StartSpan(nil, "lease")
	s.start = 1900 * time.Nanosecond
	s.end.Store(int64(3100 * time.Nanosecond))
	snaps := tr.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("snapshot = %+v, want one span", snaps)
	}
	if got, want := snaps[0].StartUS+snaps[0].DurUS, s.EndUS(); got != want {
		t.Fatalf("StartUS+DurUS = %d, EndUS() = %d", got, want)
	}
}

// TestSpanNilSafety drives the whole span API through nil receivers —
// every call must no-op.
func TestSpanNilSafety(t *testing.T) {
	var tr *Trace
	s := tr.StartSpan(nil, "x")
	if s != nil {
		t.Fatal("nil trace returned non-nil span")
	}
	s.End()
	s.SetAttr("k", 1)
	a := s.Agg("a")
	a.Observe(1)
	a.Add(1)
	if a.Count() != 0 || a.Seconds() != 0 {
		t.Fatal("nil agg returned non-zero aggregates")
	}
	if tr.Active() != nil || tr.Snapshot() != nil {
		t.Fatal("nil trace leaked state")
	}
	var reg *Registry
	if reg.StartSpan("x") != nil || reg.ActiveSpan() != nil || reg.TraceData() != nil {
		t.Fatal("nil registry leaked span state")
	}
	reg.SetTrace(NewTrace())

	// Enabled registry without a trace: still all no-ops.
	reg = New()
	if reg.StartSpan("x") != nil || reg.ActiveSpan() != nil {
		t.Fatal("trace-less registry returned a span")
	}
}

// TestSpanContext checks the context plumbing: nil spans leave the
// context untouched, carried spans parent their stage children, and the
// context-derived child becomes the trace's active span.
func TestSpanContext(t *testing.T) {
	ctx := context.Background()
	if got := ContextWithSpan(ctx, nil); got != ctx {
		t.Fatal("ContextWithSpan(nil) must return ctx unchanged")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("empty context carried a span")
	}

	// Disabled everywhere: same ctx back, nil span.
	ctx2, s := StartSpan(ctx, nil, "stage")
	if ctx2 != ctx || s != nil {
		t.Fatal("disabled StartSpan must return (ctx, nil)")
	}

	reg := New()
	tr := NewTrace()
	reg.SetTrace(tr)
	ctx2, root := StartSpan(ctx, reg, "estimate")
	if root == nil || SpanFromContext(ctx2) != root {
		t.Fatal("root span not carried in context")
	}
	ctx3, stage := StartSpan(ctx2, reg, "stage1")
	if stage == nil || SpanFromContext(ctx3) != stage {
		t.Fatal("stage span not carried in context")
	}
	if tr.Active() != stage {
		t.Fatal("ctx-derived stage span must become the trace's active span")
	}
	if reg.ActiveSpan() != stage {
		t.Fatal("Registry.ActiveSpan must see the ctx-derived stage span")
	}
	stage.End()
	if tr.Active() != root {
		t.Fatal("ending the stage must restore the root as active")
	}
	root.End()

	snaps := tr.Snapshot()
	if len(snaps) != 2 || snaps[1].ParentID != snaps[0].ID {
		t.Fatalf("snapshot = %+v, want stage parented under estimate", snaps)
	}
}

// TestSpanDisabledZeroAlloc pins the acceptance criterion: with tracing
// disabled, the instrumented path (StartSpan + attrs + aggs + End)
// allocates nothing.
func TestSpanDisabledZeroAlloc(t *testing.T) {
	ctx := context.Background()
	reg := New() // enabled registry, no trace installed
	allocs := testing.AllocsPerRun(100, func() {
		ctx2, s := StartSpan(ctx, reg, "stage")
		s.SetAttr("k", 1)
		agg := s.Agg("work")
		agg.Observe(0.001)
		agg.Add(1)
		_, s2 := StartSpan(ctx2, reg, "inner")
		s2.End()
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %v per run, want 0", allocs)
	}
}

// TestStartCLITrace checks that the -trace plumbing writes a loadable
// Chrome trace (and, with a .jsonl suffix, span JSONL) at Close.
func TestStartCLITrace(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/trace.json"
	c, err := StartCLI("", path, "", false)
	if err != nil {
		t.Fatalf("StartCLI: %v", err)
	}
	if c.Registry == nil {
		t.Fatal("trace StartCLI returned nil registry")
	}
	s := c.Registry.StartSpan("work")
	s.End()
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data := readFile(t, path)
	var out struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("trace file not valid JSON: %v", err)
	}
	// "run" root plus "work".
	if len(out.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2:\n%s", len(out.TraceEvents), data)
	}

	jpath := dir + "/trace.jsonl"
	c, err = StartCLI("", jpath, "", false)
	if err != nil {
		t.Fatalf("StartCLI(.jsonl): %v", err)
	}
	c.Registry.StartSpan("work").End()
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(readFile(t, jpath))), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	for _, ln := range lines {
		var s SpanSnapshot
		if err := json.Unmarshal([]byte(ln), &s); err != nil {
			t.Fatalf("bad span JSONL %q: %v", ln, err)
		}
	}
}
