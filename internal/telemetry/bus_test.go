package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func collect(sub *Subscription, n int) []Event {
	out := make([]Event, 0, n)
	for ev := range sub.Events() {
		out = append(out, ev)
		if len(out) == n {
			break
		}
	}
	return out
}

func TestBusPublishSubscribe(t *testing.T) {
	b := NewBus(8)
	sub := b.Subscribe(8)
	defer sub.Close()
	b.Publish("alpha", map[string]any{"x": 1})
	b.Publish("beta", nil)

	evs := collect(sub, 2)
	if evs[0].Name != "alpha" || evs[1].Name != "beta" {
		t.Fatalf("event order: got %q, %q", evs[0].Name, evs[1].Name)
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("sequence numbers: got %d, %d", evs[0].Seq, evs[1].Seq)
	}
	var obj map[string]any
	if err := json.Unmarshal(evs[0].Data, &obj); err != nil {
		t.Fatalf("event data is not JSON: %v", err)
	}
	for _, key := range []string{"seq", "t_ms", "event", "x"} {
		if _, ok := obj[key]; !ok {
			t.Errorf("event data missing %q: %s", key, evs[0].Data)
		}
	}
}

func TestBusOverflowDropsWithoutBlocking(t *testing.T) {
	b := NewBus(4)
	sub := b.Subscribe(2) // tiny queue, never drained during publishing
	defer sub.Close()
	const total = 50
	for i := 0; i < total; i++ {
		b.Publish("e", nil) // must not block despite the full queue
	}
	wantDropped := int64(total - 2)
	if got := sub.Dropped(); got != wantDropped {
		t.Errorf("subscription dropped %d, want %d", got, wantDropped)
	}
	if got := b.Dropped(); got != wantDropped {
		t.Errorf("bus-wide dropped %d, want %d", got, wantDropped)
	}
	// The two queued events are the first two — drops never reorder.
	evs := collect(sub, 2)
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Errorf("queued events have seq %d, %d; want 0, 1", evs[0].Seq, evs[1].Seq)
	}
}

func TestBusSubscribeSkipsHistory(t *testing.T) {
	b := NewBus(8)
	b.Publish("old", nil)
	sub := b.Subscribe(8)
	defer sub.Close()
	b.Publish("new", nil)
	ev := collect(sub, 1)[0]
	if ev.Name != "new" {
		t.Fatalf("Subscribe replayed history: got %q, want %q", ev.Name, "new")
	}
}

func TestBusSubscribeFromResume(t *testing.T) {
	b := NewBus(16)
	for i := 0; i < 6; i++ {
		b.Publish("e", map[string]any{"i": i})
	}
	// A client that saw seq 2 reconnects: it must get 3, 4, 5 — no gap,
	// no duplicate — then live events.
	sub := b.SubscribeFrom(2, 16)
	defer sub.Close()
	b.Publish("live", nil)
	evs := collect(sub, 4)
	for i, want := range []int64{3, 4, 5, 6} {
		if evs[i].Seq != want {
			t.Fatalf("resumed stream seq[%d] = %d, want %d", i, evs[i].Seq, want)
		}
	}
	if evs[3].Name != "live" {
		t.Errorf("live event after replay: got %q", evs[3].Name)
	}

	// afterSeq < 0 replays everything still in the ring.
	all := b.SubscribeFrom(-1, 16)
	defer all.Close()
	if evs := collect(all, 7); evs[0].Seq != 0 || evs[6].Seq != 6 {
		t.Errorf("full replay spans seq %d..%d, want 0..6", evs[0].Seq, evs[6].Seq)
	}
}

func TestBusRingEviction(t *testing.T) {
	b := NewBus(4)
	for i := 0; i < 10; i++ {
		b.Publish("e", nil)
	}
	ring := b.Ring()
	if len(ring) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(ring))
	}
	for i, want := range []int64{6, 7, 8, 9} {
		if ring[i].Seq != want {
			t.Errorf("ring[%d].Seq = %d, want %d (oldest-first order)", i, ring[i].Seq, want)
		}
	}
}

// TestBusOldestSeq pins the SSE gap-detection cursor through the ring's
// three states: empty, partially filled, and wrapped.
func TestBusOldestSeq(t *testing.T) {
	var nilBus *Bus
	if nilBus.OldestSeq() != 0 {
		t.Fatal("nil bus reports a retained event")
	}
	b := NewBus(4)
	if b.OldestSeq() != 0 {
		t.Fatalf("empty ring OldestSeq = %d, want 0 (next seq)", b.OldestSeq())
	}
	b.Publish("e", nil)
	b.Publish("e", nil)
	if b.OldestSeq() != 0 {
		t.Fatalf("partial ring OldestSeq = %d, want 0", b.OldestSeq())
	}
	for i := 0; i < 8; i++ {
		b.Publish("e", nil)
	}
	// 10 events through a 4-slot ring: 0..5 evicted, 6 is the oldest.
	if b.OldestSeq() != 6 {
		t.Fatalf("wrapped ring OldestSeq = %d, want 6", b.OldestSeq())
	}
	if b.Seq() != 10 {
		t.Fatalf("Seq = %d, want 10", b.Seq())
	}
}

func TestBusParentForwardingMergesTags(t *testing.T) {
	parent := NewBus(8)
	child := NewBus(8).WithParent(parent, map[string]any{"job": "j000001"})
	psub := parent.Subscribe(8)
	defer psub.Close()
	csub := child.Subscribe(8)
	defer csub.Close()

	child.Publish("progress", map[string]any{"n": 5})

	pev := collect(psub, 1)[0]
	if pev.Fields["job"] != "j000001" || pev.Fields["n"] != 5 {
		t.Errorf("forwarded fields = %v, want job tag merged with payload", pev.Fields)
	}
	// The local copy carries the same merged payload, so per-job and
	// global consumers decode identical objects.
	cev := collect(csub, 1)[0]
	if cev.Fields["job"] != "j000001" {
		t.Errorf("local fields = %v, want the tag present locally too", cev.Fields)
	}
	// Publisher fields win over tags on collision.
	child.Publish("progress", map[string]any{"job": "override"})
	if ev := collect(psub, 1)[0]; ev.Fields["job"] != "override" {
		t.Errorf("tag collision: got %v, want publisher value to win", ev.Fields["job"])
	}
}

func TestBusCloseEndsSubscriptionsKeepsRing(t *testing.T) {
	b := NewBus(8)
	sub := b.Subscribe(8)
	b.Publish("e", nil)
	b.Close()
	b.Close() // idempotent

	// Queued events drain, then the channel closes.
	if ev, ok := <-sub.Events(); !ok || ev.Name != "e" {
		t.Fatalf("queued event after Close: got %v, %v", ev, ok)
	}
	if _, ok := <-sub.Events(); ok {
		t.Fatal("subscription channel still open after bus Close")
	}
	if b.Subscribers() != 0 {
		t.Errorf("Subscribers() = %d after Close, want 0", b.Subscribers())
	}

	b.Publish("late", nil)
	if got := b.Seq(); got != 1 {
		t.Errorf("publish after Close advanced seq to %d, want 1", got)
	}
	// The flight recorder still works on a closed bus.
	var buf bytes.Buffer
	if err := b.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"event":"e"`) {
		t.Errorf("flight dump after Close = %q, want the retained event", buf.String())
	}

	// Subscribing to a closed bus yields an already-closed subscription.
	late := b.Subscribe(8)
	if _, ok := <-late.Events(); ok {
		t.Error("subscription on a closed bus delivered an event")
	}
}

func TestBusNilSafe(t *testing.T) {
	var b *Bus
	b.Publish("e", map[string]any{"x": 1})
	b.Close()
	if b.Seq() != 0 || b.Dropped() != 0 || b.Subscribers() != 0 || b.Ring() != nil {
		t.Error("nil bus accessors must return zero values")
	}
	if err := b.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Errorf("nil bus WriteJSONL: %v", err)
	}
	if b.WithParent(NewBus(1), nil) != nil {
		t.Error("nil bus WithParent must return nil")
	}
	sub := b.Subscribe(8)
	if _, ok := <-sub.Events(); ok {
		t.Error("subscription on a nil bus must be closed")
	}
	sub.Close()
	var s *Subscription
	s.Close()
	if s.Dropped() != 0 {
		t.Error("nil subscription Dropped must be 0")
	}
	if _, ok := <-s.Events(); ok {
		t.Error("nil subscription channel must be closed")
	}
}

// TestBusConcurrentPublishSubscribeClose exercises the lock discipline
// under the race detector: publishers, churning subscribers and a final
// Close must never race or deliver on a closed channel.
func TestBusConcurrentPublishSubscribeClose(t *testing.T) {
	b := NewBus(32)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Publish("e", map[string]any{"p": p, "i": i})
			}
		}(p)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sub := b.SubscribeFrom(-1, 4)
				// Drain a little, then churn.
				for j := 0; j < 3; j++ {
					select {
					case <-sub.Events():
					default:
					}
				}
				sub.Close()
				sub.Close() // idempotent under concurrency
			}
		}()
	}
	wg.Wait()
	if got := b.Seq(); got != 800 {
		t.Fatalf("published %d events, want 800", got)
	}
	b.Close()
}

// TestBusConcurrentDumps takes two flight dumps of one bus at once, as a
// SIGQUIT dump and a watchdog-alert dump of the same job do. Under
// -race it fails if a dump writes into the event bytes the ring shares.
func TestBusConcurrentDumps(t *testing.T) {
	b := NewBus(16)
	for i := 0; i < 16; i++ {
		b.Publish("e", map[string]any{"i": i, "pad": strings.Repeat("x", i)})
	}
	var dumps [2]bytes.Buffer
	var wg sync.WaitGroup
	for i := range dumps {
		wg.Add(1)
		go func(w *bytes.Buffer) {
			defer wg.Done()
			if err := b.WriteJSONL(w); err != nil {
				t.Error(err)
			}
		}(&dumps[i])
	}
	wg.Wait()
	if dumps[0].String() != dumps[1].String() || strings.Count(dumps[0].String(), "\n") != 16 {
		t.Fatalf("concurrent dumps differ or are short:\n%s\n---\n%s", dumps[0].String(), dumps[1].String())
	}
}

// TestBusDumpFile checks the flight-dump file round trip and that a dump
// that cannot be written reports an error instead of a path.
func TestBusDumpFile(t *testing.T) {
	b := NewBus(4)
	b.Publish("e", nil)
	dir := t.TempDir()
	path := filepath.Join(dir, "dump.jsonl")
	if err := b.DumpFile(path); err != nil {
		t.Fatalf("DumpFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(data), "\n") || !strings.Contains(string(data), `"event":"e"`) {
		t.Errorf("dump file = %q, want the retained event line", data)
	}
	if err := b.DumpFile(filepath.Join(dir, "missing", "dump.jsonl")); err == nil {
		t.Error("DumpFile into a missing directory reported success")
	}
}

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestBusLogErrorSticks checks that the first event-log write or marshal
// error is kept for Err while the bus keeps delivering to subscribers.
func TestBusLogErrorSticks(t *testing.T) {
	b := NewLogBus(4, failWriter{})
	sub := b.Subscribe(4)
	defer sub.Close()
	b.Publish("a", nil)
	b.Publish("b", nil)
	if err := b.Err(); err == nil || !strings.Contains(err.Error(), `"a"`) {
		t.Errorf("Err() = %v, want the first write error (event \"a\")", err)
	}
	if evs := collect(sub, 2); evs[1].Name != "b" {
		t.Errorf("subscriber got %q, want delivery despite the log error", evs[1].Name)
	}

	var buf bytes.Buffer
	m := NewLogBus(4, &buf)
	m.Publish("bad", map[string]any{"f": func() {}})
	m.Publish("good", nil)
	if m.Err() == nil {
		t.Error("marshal failure not reported by Err")
	}
	if line := buf.String(); !strings.Contains(line, `"seq":0`) || !strings.Contains(line, `"event":"good"`) {
		t.Errorf("log after a dropped event = %q, want the next event at seq 0", line)
	}
}

// TestBusDisabledZeroAlloc pins the off-switch cost: with no bus
// installed (nil receiver), Publish and the registry Emit fast path
// must not allocate at all.
func TestBusDisabledZeroAlloc(t *testing.T) {
	var b *Bus
	if allocs := testing.AllocsPerRun(1000, func() {
		b.Publish("progress", nil)
	}); allocs != 0 {
		t.Errorf("nil bus Publish allocates %.1f/op, want 0", allocs)
	}
	reg := New() // enabled registry, no bus
	if allocs := testing.AllocsPerRun(1000, func() {
		reg.Emit("progress", nil)
	}); allocs != 0 {
		t.Errorf("Emit without a bus allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkBusOverhead measures the disabled-path cost the observability
// plane adds to an instrumented hot loop: a nil bus publish and an Emit
// on a registry with no bus. CI runs it with -benchtime 1x
// purely to keep it compiling and honest; the numbers matter locally.
func BenchmarkBusOverhead(b *testing.B) {
	b.Run("nil-bus-publish", func(b *testing.B) {
		var bus *Bus
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bus.Publish("progress", nil)
		}
	})
	b.Run("emit-no-bus", func(b *testing.B) {
		reg := New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reg.Emit("progress", nil)
		}
	})
	b.Run("emit-with-bus-no-subs", func(b *testing.B) {
		reg := New()
		reg.SetBus(NewBus(64))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reg.Emit("progress", nil)
		}
	})
}
