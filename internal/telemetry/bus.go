package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Bus is the package's one event path: an in-process publish/subscribe
// fan-out of structured run events, built for mid-run consumers — SSE
// streams, the health watchdog, the -watch terminal renderer — and, on
// a bus built with NewLogBus, the JSONL event log.
//
// Design constraints, in order:
//
//   - Publishers never block on a subscriber. Every subscriber owns a
//     bounded queue; a full queue drops the event for that subscriber
//     and counts the drop (per subscriber and bus-wide). A slow SSE
//     client can therefore never stall an estimation chunk loop. The
//     event log is not a subscriber: its lines are written under the
//     bus lock and never dropped.
//   - The last ringSize events are retained in a ring buffer, which is
//     both the Last-Event-ID resume source for reconnecting stream
//     clients (SubscribeFrom) and the flight recorder dumped on job
//     failure, watchdog alert or SIGQUIT (DumpFile).
//   - Everything is nil-safe: a nil *Bus no-ops every method, so the
//     disabled path costs one nil check and zero allocations, matching
//     the rest of the package.
//
// Events are marshaled to their JSONL line once, at publish time, and
// the same bytes are shared by the log, every subscriber and the ring,
// so the per-subscriber cost is one bounded-channel send.
//
// Every line carries the envelope fields
//
//	seq    bus-local sequence number (0-based, no gaps)
//	t_ms   wall milliseconds since the bus was created
//	event  the event name, dot-namespaced by layer ("spice.unconverged",
//	       "gibbs.chain", "progress", "run.done", …)
//
// merged with the publisher's fields. Keys are emitted in sorted order
// (encoding/json map behavior), so the byte stream of a deterministic
// run is reproducible up to timestamps. Non-finite float64 values (the
// relative error is +Inf until the first failure lands) are replaced by
// their string spelling, because JSON has no encoding for them.
type Bus struct {
	start time.Time

	// parent, when set, receives a copy of every published event with
	// tags merged into the fields — how per-job buses feed the server's
	// global stream with a "job" label attached.
	parent *Bus
	tags   map[string]any

	published atomic.Int64
	dropped   atomic.Int64

	mu     sync.Mutex
	log    io.Writer                  // event log (NewLogBus); guarded by mu
	err    error                      // first log write or marshal error; guarded by mu
	seq    int64                      // guarded by mu
	ring   []Event                    // capacity fixed at NewBus; oldest overwritten first; guarded by mu
	next   int                        // ring write cursor; guarded by mu
	filled bool                       // ring wrapped at least once; guarded by mu
	subs   map[*Subscription]struct{} // guarded by mu
	closed bool                       // guarded by mu
}

// Event is one published bus event. Fields is the publisher's map —
// subscribers must treat it as read-only — and Data is the event's
// JSONL line (envelope keys seq, t_ms, event merged with Fields),
// marshaled once and shared by every consumer.
type Event struct {
	// Seq is the bus-local monotonically increasing sequence number
	// (0-based) — the SSE event id and the resume cursor.
	Seq int64
	// TMS is wall milliseconds since the bus was created.
	TMS int64
	// Name is the dot-namespaced event name ("progress", "health.…").
	Name string
	// Fields holds the publisher's payload (read-only; may be nil).
	Fields map[string]any
	// Data is the marshaled JSON object, without a trailing newline.
	Data []byte
}

// defaultRing is the ring capacity when NewBus is given a non-positive
// size: enough to hold the full tail of a failing run (every chunk
// progress event of a 100k-sample stage-2 at ChunkSize 256 is ~400
// events) without holding megabytes per job.
const defaultRing = 256

// NewBus returns an empty bus retaining the last ringSize events
// (ringSize <= 0 selects a 256-event ring).
func NewBus(ringSize int) *Bus { return NewLogBus(ringSize, nil) }

// NewLogBus is NewBus plus an event log: each published event's line,
// newline-terminated, is written to w in seq order with one Write per
// line, so seq matches file order. Events forwarded from child buses
// (WithParent) are logged too, with their tags. A nil w logs nothing.
// The first write error sticks (Err) — telemetry must never fail a run.
// The caller keeps ownership of w: Close the bus before flushing or
// closing it, so no publish writes concurrently.
func NewLogBus(ringSize int, w io.Writer) *Bus {
	if ringSize <= 0 {
		ringSize = defaultRing
	}
	return &Bus{
		start: time.Now(),
		log:   w,
		ring:  make([]Event, ringSize),
		subs:  make(map[*Subscription]struct{}),
	}
}

// WithParent chains b to a parent bus: every event published on b is
// republished on parent with the given tags merged into the fields
// (publisher fields win on key collision). Returns b for chaining;
// nil-safe on both sides.
func (b *Bus) WithParent(parent *Bus, tags map[string]any) *Bus {
	if b == nil {
		return nil
	}
	b.parent = parent
	b.tags = tags
	return b
}

// Publish logs one event, fans it out to every subscriber, appends it
// to the ring, and forwards it (with tags) to the parent bus. Fields
// must not be mutated after the call. A marshal failure drops the event
// and sticks in Err — the bus must never fail a run.
func (b *Bus) Publish(event string, fields map[string]any) {
	if b == nil {
		return
	}
	var payload map[string]any
	if b.parent != nil || b.tags != nil {
		// Merge tags now so the local and forwarded payloads agree.
		payload = make(map[string]any, len(fields)+len(b.tags))
		for k, v := range b.tags {
			payload[k] = v
		}
		for k, v := range fields {
			payload[k] = v
		}
	} else {
		payload = fields
	}
	b.publish(event, payload)
	if b.parent != nil {
		b.parent.publish(event, payload)
	}
}

// publish delivers one event locally (no parent forwarding).
func (b *Bus) publish(event string, fields map[string]any) {
	if b == nil {
		return
	}
	obj := make(map[string]any, len(fields)+3)
	for k, v := range fields {
		obj[k] = sanitizeJSON(v)
	}
	tms := time.Since(b.start).Milliseconds()
	obj["t_ms"] = tms
	obj["event"] = event

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	seq := b.seq
	obj["seq"] = seq
	data, err := json.Marshal(obj)
	if err != nil {
		b.failLocked(fmt.Errorf("telemetry: marshaling event %q: %w", event, err))
		return
	}
	if b.log != nil {
		line := append(data, '\n')
		// Cap Data at the object, so an append to it copies instead of
		// writing into the line the log and the ring share.
		data = line[:len(data):len(data)]
		if _, err := b.log.Write(line); err != nil {
			b.failLocked(fmt.Errorf("telemetry: writing event %q: %w", event, err))
		}
	}
	b.seq++
	ev := Event{Seq: seq, TMS: tms, Name: event, Fields: fields, Data: data}
	b.ring[b.next] = ev
	b.next++
	if b.next == len(b.ring) {
		b.next = 0
		b.filled = true
	}
	b.published.Add(1)
	for sub := range b.subs {
		sub.deliver(ev, &b.dropped)
	}
}

// Subscribe registers a new subscriber with a bounded queue of the given
// capacity (<= 0 selects 64). Events published after the call are
// delivered in order; when the queue is full events are dropped and
// counted, never blocking the publisher. Close the subscription when
// done — an abandoned subscription keeps dropping (cheaply) forever.
func (b *Bus) Subscribe(buffer int) *Subscription {
	if b == nil {
		return closedSubscription()
	}
	return b.SubscribeFrom(b.Seq()-1, buffer)
}

// closedSubscription is what subscribing to a nil or closed bus yields:
// already closed, so consumers need no special case.
func closedSubscription() *Subscription {
	sub := &Subscription{ch: make(chan Event), closed: true}
	close(sub.ch)
	return sub
}

// SubscribeFrom is Subscribe plus ring replay: retained events with
// Seq > afterSeq are queued before live delivery begins, with no gap or
// duplication in between (registration and replay happen under one
// lock). afterSeq < 0 replays the whole ring; to skip history pass the
// bus's current Seq. A reconnecting SSE client passes its Last-Event-ID
// here. On a nil or closed bus the subscription is returned already
// closed (its channel is closed), so consumers need no special case.
func (b *Bus) SubscribeFrom(afterSeq int64, buffer int) *Subscription {
	if b == nil {
		return closedSubscription()
	}
	if buffer <= 0 {
		buffer = 64
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return closedSubscription()
	}
	sub := &Subscription{ch: make(chan Event, buffer)}
	sub.bus = b
	for _, ev := range b.ringLocked() {
		if ev.Seq > afterSeq {
			sub.deliver(ev, &b.dropped)
		}
	}
	b.subs[sub] = struct{}{}
	return sub
}

// ringLocked returns the retained events oldest-first. Callers hold b.mu.
func (b *Bus) ringLocked() []Event {
	if !b.filled {
		return b.ring[:b.next]
	}
	out := make([]Event, 0, len(b.ring))
	out = append(out, b.ring[b.next:]...)
	out = append(out, b.ring[:b.next]...)
	return out
}

// Ring returns a snapshot of the retained events, oldest first — the
// flight-recorder view of the run's last moments.
func (b *Bus) Ring() []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, 0, len(b.ring))
	return append(out, b.ringLocked()...)
}

// failLocked records err as the sticky Err unless one is already set.
// Callers hold b.mu.
func (b *Bus) failLocked(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Err returns the first event-log write or event marshal error (nil on
// nil).
func (b *Bus) Err() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// WriteJSONL dumps the retained events as JSON Lines, oldest first.
// Each line is the event exactly as published (bus-local seq, t_ms,
// event name, fields). The shared Data bytes are only read, so dumps of
// one bus may run concurrently.
func (b *Bus) WriteJSONL(w io.Writer) error {
	if b == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, ev := range b.Ring() {
		bw.Write(ev.Data)
		bw.WriteByte('\n')
	}
	// bufio keeps the first write error and Flush returns it.
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("telemetry: flight dump: %w", err)
	}
	return nil
}

// DumpFile writes the retained events (WriteJSONL) to a new file at
// path — the flight-recorder dump taken on job failure, watchdog alert
// or SIGQUIT. It returns the first of the create, write and close
// errors, so a nil error means the dump is on disk. No-op on nil.
func (b *Bus) DumpFile(path string) error {
	if b == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: flight dump: %w", err)
	}
	err = b.WriteJSONL(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("telemetry: flight dump: %w", cerr)
	}
	return err
}

// Seq returns the next sequence number to be assigned — equivalently,
// the number of events ever published (0 on nil).
func (b *Bus) Seq() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// OldestSeq returns the sequence number of the oldest event the ring
// still retains, or the bus's next sequence number when the ring is
// empty (0 on nil). An SSE resume asking for events after a seq below
// OldestSeq()-1 has a replay gap: events between the requested cursor
// and the ring's tail were evicted and cannot be delivered.
func (b *Bus) OldestSeq() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.filled {
		if b.next == 0 {
			return b.seq
		}
		return b.ring[0].Seq
	}
	return b.ring[b.next].Seq
}

// Dropped returns the total events dropped across all subscribers since
// the bus was created (0 on nil).
func (b *Bus) Dropped() int64 {
	if b == nil {
		return 0
	}
	return b.dropped.Load()
}

// Subscribers returns the number of live subscriptions (0 on nil) —
// what the SSE leak tests assert against.
func (b *Bus) Subscribers() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Close closes every subscription (their channels drain then close) and
// rejects further publishes. The ring is retained: flight-recorder
// dumps still work after Close. Idempotent and nil-safe.
func (b *Bus) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for sub := range b.subs {
		sub.closed = true
		close(sub.ch)
	}
	b.subs = make(map[*Subscription]struct{})
}

// Subscription is one subscriber's bounded event queue. Receive from
// Events; the channel closes when the subscription (or the bus) is
// closed. All methods are nil-safe.
type Subscription struct {
	bus     *Bus
	ch      chan Event
	closed  bool // protected by the owning bus.mu (true only while unregistered)
	dropped atomic.Int64
}

// deliver enqueues ev without blocking, counting a drop on overflow.
// Callers hold the bus lock, which is what makes Close safe: the channel
// can only be closed under the same lock.
func (s *Subscription) deliver(ev Event, busDropped *atomic.Int64) {
	select {
	case s.ch <- ev:
	default:
		s.dropped.Add(1)
		busDropped.Add(1)
	}
}

// Events returns the receive channel. It closes after Close (or bus
// Close); events already queued are still delivered first. Nil-safe: a
// nil subscription returns a closed channel.
func (s *Subscription) Events() <-chan Event {
	if s == nil {
		ch := make(chan Event)
		close(ch)
		return ch
	}
	return s.ch
}

// Dropped returns how many events this subscription missed because its
// queue was full (0 on nil). SSE handlers surface it to the client as a
// stream.dropped meta event.
func (s *Subscription) Dropped() int64 {
	if s == nil {
		return 0
	}
	return s.dropped.Load()
}

// Close unregisters the subscription and closes its channel. Safe to
// call concurrently with publishes and idempotent; nil-safe.
func (s *Subscription) Close() {
	if s == nil || s.bus == nil {
		return
	}
	b := s.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	delete(b.subs, s)
	close(s.ch)
}

// sanitizeJSON maps values JSON cannot carry (NaN, ±Inf — in both bare
// float64 fields and []float64 series) to their string spelling.
func sanitizeJSON(v any) any {
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Sprint(x)
		}
		return x
	case []float64:
		out := make([]any, len(x))
		for i, f := range x {
			out[i] = sanitizeJSON(f)
		}
		return out
	default:
		return v
	}
}
