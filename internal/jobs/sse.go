package jobs

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Server-Sent Events endpoints — the live half of the jobs API:
//
//	GET /v1/jobs/{id}/events   one job's event stream
//	GET /v1/events             the server-global stream (all jobs, tagged)
//
// Both speak plain SSE: each bus event becomes an "id:" (the bus
// sequence number), "event:" (the dot-namespaced event name) and
// "data:" (the event's JSON object) frame, with comment heartbeats
// every Config.Heartbeat so intermediaries keep the connection alive. A
// reconnecting client sends the standard Last-Event-ID header (or an
// ?after=<seq> query) and resumes from the per-job ring buffer without
// gaps, as long as the gap still fits the ring.
//
// The per-job stream terminates after the job's terminal "job.done"
// event — curl exits on its own once the job finishes, including for
// jobs that finished before the client connected (the ring replays the
// whole lifecycle). The global stream runs until the client disconnects
// or the server drains. A slow client never blocks an estimation loop:
// its queue overflows instead, and the stream reports how many events
// it missed via "stream.dropped" meta events.

// sseEvents serves one subscription as an SSE stream. terminate, when
// non-empty, names the event that ends the stream after being sent; a
// close of stop ends it too (a nil stop never does).
func (m *Manager) sseEvents(w http.ResponseWriter, r *http.Request, bus *telemetry.Bus, terminate string, stop <-chan struct{}) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("jobs: response writer does not support streaming"))
		return
	}
	after := int64(-1) // default: replay the whole retained ring
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if seq, err := strconv.ParseInt(v, 10, 64); err == nil {
			after = seq
		}
	} else if v := r.URL.Query().Get("after"); v != "" {
		if seq, err := strconv.ParseInt(v, 10, 64); err == nil {
			after = seq
		}
	}
	// Detect a resume gap before subscribing: if the client's cursor
	// fell off the ring (wraparound, or the ring owner was swept), the
	// events in between are gone and the replay silently starts at the
	// ring's tail. The stream.gap meta event makes that visible so the
	// client can resynchronize instead of assuming continuity.
	var gap int64
	oldest := bus.OldestSeq()
	if after >= 0 && oldest > after+1 {
		gap = oldest - after - 1
	}
	sub := bus.SubscribeFrom(after, 256)
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	if gap > 0 {
		fmt.Fprintf(w, "event: %s\ndata: {\"requested_after\":%d,\"oldest\":%d,\"missed\":%d}\n\n",
			wire.EvStreamGap, after, oldest, gap)
	}
	flusher.Flush()

	heartbeat := time.NewTicker(m.cfg.Heartbeat)
	defer heartbeat.Stop()
	var reportedDrops int64
	for {
		select {
		case <-r.Context().Done():
			return
		case <-stop:
			return
		case <-heartbeat.C:
			// Comment line: ignored by EventSource, keeps the pipe warm.
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case ev, ok := <-sub.Events():
			if !ok {
				// Bus closed (job removal).
				return
			}
			if d := sub.Dropped(); d > reportedDrops {
				fmt.Fprintf(w, "event: %s\ndata: {\"dropped\":%d}\n\n", wire.EvStreamDropped, d)
				reportedDrops = d
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Name, ev.Data); err != nil {
				return
			}
			flusher.Flush()
			if terminate != "" && ev.Name == terminate {
				return
			}
		}
	}
}

// handleJobEvents serves GET /v1/jobs/{id}/events.
func (m *Manager) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, err := m.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	bus := job.Events()
	if bus == nil {
		writeError(w, http.StatusNotFound, errors.New("jobs: event streaming is disabled (start the server with -event-ring > 0)"))
		return
	}
	m.sseEvents(w, r, bus, wire.EvJobDone, nil)
}

// handleGlobalEvents serves GET /v1/events.
func (m *Manager) handleGlobalEvents(w http.ResponseWriter, r *http.Request) {
	if m.bus == nil {
		writeError(w, http.StatusNotFound, errors.New("jobs: event streaming is disabled (start the server with -event-ring > 0)"))
		return
	}
	m.sseEvents(w, r, m.bus, "", m.drained)
}
