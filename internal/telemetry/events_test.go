package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestEventOrdering emits events concurrently and checks the event log's
// core contract: every line is a complete JSON object, lines never
// interleave, and the seq field matches file order exactly.
func TestEventOrdering(t *testing.T) {
	var buf strings.Builder
	r := New()
	bus := NewLogBus(0, &syncWriter{w: &buf})
	r.SetBus(bus)

	const workers = 4
	const perWorker = 200
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Emit("test.event", map[string]any{"worker": id, "i": i})
			}
		}(w)
	}
	wg.Wait()
	if err := bus.Err(); err != nil {
		t.Fatalf("event log error: %v", err)
	}

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != workers*perWorker {
		t.Fatalf("got %d lines, want %d", len(lines), workers*perWorker)
	}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if seq := int(obj["seq"].(float64)); seq != i {
			t.Fatalf("line %d has seq %d: seq order must match file order", i, seq)
		}
		if obj["event"] != "test.event" {
			t.Fatalf("line %d has event %v", i, obj["event"])
		}
	}
}

// syncWriter makes a strings.Builder safe for the concurrent log test;
// it also detects torn writes (every Write must be one full line).
type syncWriter struct {
	mu sync.Mutex
	w  *strings.Builder
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(p) == 0 || p[len(p)-1] != '\n' {
		panic("torn write: event line missing trailing newline")
	}
	return s.w.Write(p)
}

// TestEventSanitize checks that NaN and ±Inf — which JSON cannot encode —
// come out as their string spellings instead of failing the marshal. The
// running relative error is +Inf until the first failure lands, so this
// path is hit by every real run.
func TestEventSanitize(t *testing.T) {
	var buf strings.Builder
	bus := NewLogBus(0, &buf)
	bus.Publish("e", map[string]any{
		"inf":    math.Inf(1),
		"neginf": math.Inf(-1),
		"nan":    math.NaN(),
		"series": []float64{1, math.Inf(1)},
		"plain":  2.5,
	})
	if err := bus.Err(); err != nil {
		t.Fatalf("event log error: %v", err)
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &obj); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if obj["inf"] != "+Inf" || obj["neginf"] != "-Inf" || obj["nan"] != "NaN" {
		t.Fatalf("non-finite floats not sanitized: %v", obj)
	}
	series := obj["series"].([]any)
	if series[0].(float64) != 1 || series[1] != "+Inf" {
		t.Fatalf("series not sanitized: %v", series)
	}
	if obj["plain"].(float64) != 2.5 {
		t.Fatalf("finite value altered: %v", obj["plain"])
	}
}

// TestEmitWithoutSink checks that a registry with no bus swallows
// events (instrumented code never branches on bus presence).
func TestEmitWithoutSink(t *testing.T) {
	r := New()
	r.Emit("no.sink", map[string]any{"k": 1}) // must not panic
}
