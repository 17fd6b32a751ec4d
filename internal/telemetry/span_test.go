package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
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

// TestSpanTree checks that the tree is built from explicit parents
// only: Trace.StartSpan with a nil parent always roots a new tree, even
// while another span runs, and children (StartSpan with a parent, or
// Child) nest under the span they were started from.
func TestSpanTree(t *testing.T) {
	tr := NewTrace()
	root := tr.StartSpan(nil, "estimate")
	stage1 := tr.StartSpan(root, "stage1")
	side := stage1.Child("fit")
	other := tr.StartSpan(nil, "other")
	other.End()
	side.End()
	stage1.End()
	stage2 := root.Child("stage2")
	stage2.End()
	root.End()

	snaps := tr.Snapshot()
	if len(snaps) != 5 {
		t.Fatalf("got %d spans, want 5", len(snaps))
	}
	byName := map[string]SpanSnapshot{}
	for _, s := range snaps {
		byName[s.Name] = s
	}
	for _, name := range []string{"estimate", "other"} {
		if byName[name].ParentID != 0 {
			t.Fatalf("%s parent = %d, want a root", name, byName[name].ParentID)
		}
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
		if s.Counters != nil {
			t.Fatalf("span %s slices no registry but has counters %v", s.Name, s.Counters)
		}
	}
}

// TestSpanEndIdempotent checks that the first End wins: a second End
// clobbers neither the recorded end time nor the counters kept at the
// first.
func TestSpanEndIdempotent(t *testing.T) {
	reg := New()
	reg.SetTrace(NewTrace())
	c := reg.Scope("x").Counter("n_total")
	_, s := StartSpan(context.Background(), reg, "a")
	c.Inc()
	s.End()
	first := s.end.Load()
	time.Sleep(2 * time.Millisecond)
	c.Inc()
	s.End()
	if s.end.Load() != first {
		t.Fatal("second End overwrote the end time")
	}
	if got := reg.TraceData().Snapshot()[0].Counters["x.n_total"]; got != 1 {
		t.Fatalf("counters after a second End: x.n_total = %v, want 1", got)
	}
}

// TestSpanAgg checks that a span's counters are its registry's growth
// over the span: each counter, and each histogram's count and sum,
// keyed scope.name; only nonzero growth, live while the span runs, and
// a child started without a registry slices its parent's.
func TestSpanAgg(t *testing.T) {
	reg := New()
	tr := NewTrace()
	reg.SetTrace(tr)
	sc := reg.Scope("spice")
	solves := sc.Counter("solves_total")
	secs := sc.Histogram("solve_seconds", []float64{1})
	sc.Counter("idle_total").Add(4)
	solves.Add(10) // before the span: not its growth
	secs.Observe(2)

	ctx, stage := StartSpan(context.Background(), reg, "stage2")
	solves.Add(3)
	_, child := StartSpan(ctx, nil, "chunk")
	solves.Add(2)
	secs.Observe(0.5)
	secs.Observe(0.25)
	reg.Scope("mc").Counter("chunks_total").Inc() // created mid-span
	live := tr.Snapshot()
	child.End()
	stage.End()
	solves.Add(100) // after the span: not its growth

	want := map[string]float64{
		"spice.solves_total":        5,
		"spice.solve_seconds.count": 2,
		"spice.solve_seconds.sum":   0.75,
		"mc.chunks_total":           1,
	}
	snaps := tr.Snapshot()
	if !reflect.DeepEqual(snaps[0].Counters, want) {
		t.Fatalf("stage2 counters = %v, want %v", snaps[0].Counters, want)
	}
	want["spice.solves_total"] = 2
	if !reflect.DeepEqual(snaps[1].Counters, want) {
		t.Fatalf("chunk counters = %v, want %v", snaps[1].Counters, want)
	}
	if !live[0].Running || live[0].Counters["spice.solves_total"] != 5 {
		t.Fatalf("running stage2 snapshot = %+v, want live growth of 5 solves", live[0])
	}
}

// TestTraceWriteJSONL checks the span-per-line export parses back,
// counters included.
func TestTraceWriteJSONL(t *testing.T) {
	reg := New()
	tr := NewTrace()
	reg.SetTrace(tr)
	ctx, root := StartSpan(context.Background(), reg, "run")
	root.SetAttr("method", "g-s")
	_, child := StartSpan(ctx, reg, "chain")
	reg.Scope("gibbs").Counter("updates_total").Add(7)
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
	if lines[1].Name != "chain" || len(lines[1].Counters) != 1 || lines[1].Counters["gibbs.updates_total"] != 7 {
		t.Fatalf("chain line = %+v", lines[1])
	}
}

// TestTraceWriteChromeTrace checks the Chrome trace-event export: a
// traceEvents array of complete events whose tids encode tree depth and
// whose args carry attrs and counters.
func TestTraceWriteChromeTrace(t *testing.T) {
	reg := New()
	tr := NewTrace()
	reg.SetTrace(tr)
	ctx, root := StartSpan(context.Background(), reg, "estimate")
	root.SetAttr("metric", "readcurrent")
	_, stage := StartSpan(ctx, reg, "stage2")
	reg.Scope("mc").Counter("chunks_total").Inc()
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
		if ev.Args["mc.chunks_total"] != float64(1) {
			t.Fatalf("%s args = %v, want mc.chunks_total 1", ev.Name, ev.Args)
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
	if s.Child("y") != nil || s.ID() != 0 || s.EndUS() != 0 {
		t.Fatal("nil span leaked state")
	}
	if tr.Snapshot() != nil {
		t.Fatal("nil trace leaked state")
	}
	var reg *Registry
	if reg.TraceData() != nil {
		t.Fatal("nil registry leaked span state")
	}
	reg.SetTrace(NewTrace())
	var c *CLI
	if ctx := context.Background(); c.Context(ctx) != ctx {
		t.Fatal("nil CLI changed the context")
	}
}

// TestSpanContext checks the context plumbing: nil spans leave the
// context untouched, carried spans parent their stage children, and a
// registry without a carried span roots a new tree on its trace.
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
	ctx2, s = StartSpan(ctx, New(), "stage")
	if ctx2 != ctx || s != nil {
		t.Fatal("StartSpan on a registry without a trace must return (ctx, nil)")
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
	// A span started while the stage runs, from a context that does not
	// carry it, is a root.
	_, other := StartSpan(ctx, reg, "other")
	other.End()
	stage.End()
	root.End()

	snaps := tr.Snapshot()
	if len(snaps) != 3 || snaps[0].ParentID != 0 || snaps[1].ParentID != snaps[0].ID || snaps[2].ParentID != 0 {
		t.Fatalf("snapshot = %+v, want stage parented under estimate and other a root", snaps)
	}
}

// TestSpanDisabledZeroAlloc pins the acceptance criterion: with tracing
// disabled, the instrumented path (StartSpan + attrs + End) allocates
// nothing.
func TestSpanDisabledZeroAlloc(t *testing.T) {
	ctx := context.Background()
	reg := New() // enabled registry, no trace installed
	allocs := testing.AllocsPerRun(100, func() {
		ctx2, s := StartSpan(ctx, reg, "stage")
		s.SetAttr("k", 1)
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
	_, s := StartSpan(c.Context(context.Background()), c.Registry, "work")
	c.Registry.Scope("spice").Counter("solves_total").Add(2)
	s.End()
	// Work outside any span still lands in the root's counters.
	c.Registry.Scope("spice").Counter("solves_total").Inc()
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data := readFile(t, path)
	var out struct {
		TraceEvents []struct {
			Name string             `json:"name"`
			TID  int64              `json:"tid"`
			Args map[string]float64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("trace file not valid JSON: %v", err)
	}
	// "run" root plus "work" under it; the root's counters cover the
	// whole command.
	if len(out.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2:\n%s", len(out.TraceEvents), data)
	}
	want := map[string][2]float64{"run": {0, 3}, "work": {1, 2}}
	for _, ev := range out.TraceEvents {
		if w := want[ev.Name]; float64(ev.TID) != w[0] || ev.Args["spice.solves_total"] != w[1] {
			t.Fatalf("event %s: depth %d, spice.solves_total %v; want %v", ev.Name, ev.TID, ev.Args["spice.solves_total"], w)
		}
	}

	jpath := dir + "/trace.jsonl"
	c, err = StartCLI("", jpath, "", false)
	if err != nil {
		t.Fatalf("StartCLI(.jsonl): %v", err)
	}
	_, s = StartSpan(c.Context(context.Background()), c.Registry, "work")
	s.End()
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
