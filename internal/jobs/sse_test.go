package jobs

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// sseFrame is one parsed Server-Sent Events frame.
type sseFrame struct {
	ID    int64
	Event string
	Data  map[string]any
}

// readSSE parses frames from an SSE body until EOF or limit frames.
func readSSE(t *testing.T, body io.Reader, limit int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	cur := sseFrame{ID: -1}
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Event != "" || cur.Data != nil {
				frames = append(frames, cur)
				if limit > 0 && len(frames) >= limit {
					return frames
				}
			}
			cur = sseFrame{ID: -1}
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseInt(line[4:], 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q: %v", line, err)
			}
			cur.ID = id
		case strings.HasPrefix(line, "event: "):
			cur.Event = line[7:]
		case strings.HasPrefix(line, "data: "):
			var obj map[string]any
			if err := json.Unmarshal([]byte(line[6:]), &obj); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
			cur.Data = obj
		case strings.HasPrefix(line, ":"):
			// comment/heartbeat — ignored
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return frames
}

func getSSE(t *testing.T, url, lastEventID string) (*http.Response, func()) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	return resp, func() { resp.Body.Close() }
}

// TestSSEJobStreamLifecycle runs a job to completion, then replays its
// whole event stream: the ring must deliver the lifecycle in order —
// job.submitted, at least one progress event with non-decreasing sample
// counts and a finite ETA, and the terminal job.done, after which the
// stream ends on its own (the reader sees EOF, not a hang).
func TestSSEJobStreamLifecycle(t *testing.T) {
	m, srv := newTestServer(t, Config{Registry: telemetry.New(), EventRing: 512})
	snap := postJob(t, srv, `{"workload":"lin","method":"g-s","seed":5,"k":200,"n":2000}`, http.StatusAccepted)
	waitTerminal(t, srv, snap.ID)

	resp, closeBody := getSSE(t, srv.URL+"/v1/jobs/"+snap.ID+"/events", "")
	defer closeBody()
	frames := readSSE(t, resp.Body, 0) // reads to EOF: the stream must self-terminate

	if len(frames) < 3 {
		t.Fatalf("got %d frames, want at least submitted + progress + done", len(frames))
	}
	if frames[0].Event != "job.submitted" {
		t.Errorf("first event %q, want job.submitted", frames[0].Event)
	}
	last := frames[len(frames)-1]
	if last.Event != "job.done" {
		t.Errorf("last event %q, want job.done (the stream must end on the terminal event)", last.Event)
	}
	if state, _ := last.Data["state"].(string); state != string(StateDone) {
		t.Errorf("job.done state = %v, want %q", last.Data["state"], StateDone)
	}

	progress := 0
	lastN := -1.0
	prevID := int64(-1)
	for _, f := range frames {
		if f.ID <= prevID {
			t.Fatalf("SSE ids not increasing: %d after %d", f.ID, prevID)
		}
		prevID = f.ID
		if f.Event != "progress" {
			continue
		}
		progress++
		n, ok := f.Data["n"].(float64)
		if !ok || n < lastN {
			t.Fatalf("progress n = %v after %v, want monotonically non-decreasing", f.Data["n"], lastN)
		}
		lastN = n
		eta, ok := f.Data["eta_seconds"].(float64)
		if !ok || math.IsNaN(eta) || math.IsInf(eta, 0) || eta < 0 {
			t.Fatalf("progress eta_seconds = %v, want finite and non-negative", f.Data["eta_seconds"])
		}
		if _, ok := f.Data["sims_per_sec"].(float64); !ok {
			t.Fatalf("progress event missing sims_per_sec: %v", f.Data)
		}
		if job, _ := f.Data["job"].(string); job != snap.ID {
			t.Fatalf("progress event job tag = %v, want %q", f.Data["job"], snap.ID)
		}
	}
	if progress < 1 {
		t.Error("stream contained no progress events")
	}

	// Resume: a client that saw the third frame re-connects with
	// Last-Event-ID and must get strictly later events only, still
	// ending with job.done.
	if len(frames) > 3 {
		mid := frames[2].ID
		resp2, close2 := getSSE(t, srv.URL+"/v1/jobs/"+snap.ID+"/events", strconv.FormatInt(mid, 10))
		defer close2()
		resumed := readSSE(t, resp2.Body, 0)
		if len(resumed) == 0 {
			t.Fatal("resume delivered nothing")
		}
		if resumed[0].ID != mid+1 {
			t.Errorf("resume started at id %d, want %d (no gap, no duplicate)", resumed[0].ID, mid+1)
		}
		if resumed[len(resumed)-1].Event != "job.done" {
			t.Errorf("resumed stream last event %q, want job.done", resumed[len(resumed)-1].Event)
		}
	}

	// The global stream carries the same events tagged with the job ID.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/v1/events", nil)
	gresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	gframes := readSSE(t, gresp.Body, 3) // global stream never self-terminates; take a few
	for _, f := range gframes {
		if job, _ := f.Data["job"].(string); job != snap.ID {
			t.Errorf("global event %q missing job tag: %v", f.Event, f.Data)
		}
	}
	cancel()

	_ = m
}

// TestSSEClientDisconnectCleansUp kills the client mid-stream of a live
// job and asserts the handler unsubscribes — no subscription (and hence
// no handler goroutine parked on it) outlives the connection. The
// baseline is whatever the job's own machinery (the watchdog) holds;
// the SSE handler must add exactly one subscription and give it back.
func TestSSEClientDisconnectCleansUp(t *testing.T) {
	m, srv := newTestServer(t, Config{Registry: telemetry.New(), EventRing: 64, Heartbeat: 10 * time.Millisecond})
	snap := postJob(t, srv, `{"workload":"slow","method":"mc","seed":1,"n":4194304}`, http.StatusAccepted)
	job, err := m.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The watchdog subscribes when the job starts running; read the
	// baseline after that, or a late start counts as a leak.
	deadline := time.Now().Add(30 * time.Second)
	for job.Snapshot().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	baseline := job.Events().Subscribers()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/v1/jobs/"+snap.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one frame to prove the stream is live, then hang up.
	readSSE(t, io.LimitReader(resp.Body, 256), 1)
	if n := job.Events().Subscribers(); n != baseline+1 {
		t.Fatalf("job bus has %d subscribers while streaming, want %d", n, baseline+1)
	}
	cancel()
	resp.Body.Close()

	deadline = time.Now().Add(5 * time.Second)
	for job.Events().Subscribers() != baseline {
		if time.Now().After(deadline) {
			t.Fatalf("job bus still has %d subscribers after client disconnect, want %d", job.Events().Subscribers(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := m.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, srv, snap.ID)
}

// TestSSEHeartbeat asserts comment heartbeats flow while nothing is
// published.
func TestSSEHeartbeat(t *testing.T) {
	_, srv := newTestServer(t, Config{Registry: telemetry.New(), EventRing: 64, Heartbeat: 10 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/v1/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 64)
	n, err := resp.Body.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf[:n]), ": hb") {
		t.Errorf("idle stream produced %q, want a heartbeat comment", buf[:n])
	}
}

// TestSSEDisabled pins the off switch: with EventRing 0 both endpoints
// 404 and jobs carry no bus.
func TestSSEDisabled(t *testing.T) {
	m, srv := newTestServer(t, Config{Registry: telemetry.New()})
	snap := postJob(t, srv, `{"workload":"lin","method":"g-s","seed":5,"k":200,"n":2000}`, http.StatusAccepted)
	waitTerminal(t, srv, snap.ID)
	job, err := m.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.Events() != nil {
		t.Error("job has an event bus with EventRing 0")
	}
	for _, path := range []string{"/v1/jobs/" + snap.ID + "/events", "/v1/events"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s with events disabled: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// metricsBody scrapes the server-wide /metrics endpoint.
func metricsBody(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestJobMetricsFreshAtFirstScrape checks that the per-job gauges are
// read from the job itself, not from a stream consumed asynchronously:
// the first /metrics scrape after a job finished already shows its
// terminal state and final simulation count, with or without the event
// plane.
func TestJobMetricsFreshAtFirstScrape(t *testing.T) {
	for _, ring := range []int{256, 0} {
		_, srv := newTestServer(t, Config{Registry: telemetry.New(), EventRing: ring})
		snap := postJob(t, srv, `{"workload":"lin","method":"g-s","seed":5,"k":200,"n":2000}`, http.StatusAccepted)
		final := waitTerminal(t, srv, snap.ID)
		body := metricsBody(t, srv)
		prefix := "repro_job_" + snap.ID + "_"
		for _, want := range []string{
			prefix + "state 1",
			prefix + "sims " + strconv.FormatFloat(float64(final.Sims), 'g', -1, 64),
		} {
			if !strings.Contains(body, want+"\n") {
				t.Errorf("EventRing %d: first scrape after the job finished lacks %q:\n%s", ring, want, body)
			}
		}
	}
}

// TestJobMetricsUnregisteredOnRemove is the GC regression test: a
// removed job's per-job metrics must disappear from /metrics instead of
// lingering forever.
func TestJobMetricsUnregisteredOnRemove(t *testing.T) {
	m, srv := newTestServer(t, Config{Registry: telemetry.New(), EventRing: 256})
	snap := postJob(t, srv, `{"workload":"lin","method":"g-s","seed":5,"k":200,"n":2000}`, http.StatusAccepted)
	waitTerminal(t, srv, snap.ID)

	// Wait for the job's scope to appear in the scrape.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(metricsBody(t, srv), "job_"+snap.ID) {
		if time.Now().After(deadline) {
			t.Fatalf("per-job metrics for %s never appeared in /metrics", snap.ID)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := m.Remove(snap.ID); err != nil {
		t.Fatal(err)
	}
	if body := metricsBody(t, srv); strings.Contains(body, "job_"+snap.ID) {
		t.Error("per-job metrics still present in /metrics after Remove")
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/" + snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET removed job: status %d, want 404", resp.StatusCode)
	}
	if err := m.Remove(snap.ID); err == nil {
		t.Error("removing an unknown job must error")
	}
}

// TestJobMetricsOmitServerGauges checks that a job's own /metrics holds
// only its run's telemetry: the queue_depth and running gauges live on
// the server registry and must not appear, zero-valued, in the job's
// registry however long the job runs.
func TestJobMetricsOmitServerGauges(t *testing.T) {
	m, srv := newTestServer(t, Config{Registry: telemetry.New(), EventRing: 64})
	snap := postJob(t, srv, `{"workload":"slow","method":"mc","seed":1,"n":4194304}`, http.StatusAccepted)
	deadline := time.Now().Add(30 * time.Second)
	for getSnapshot(t, srv, snap.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(1500 * time.Millisecond)
	if s := getSnapshot(t, srv, snap.ID); s.State != StateRunning {
		t.Fatalf("job state %s after 1.5 s, want running", s.State)
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/" + snap.ID + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "repro_jobs_") {
		t.Errorf("job metrics carry server-wide jobs series:\n%s", b)
	}
	if _, err := m.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, srv, snap.ID)
}

// TestRemoveRejectsLiveJob guards against dropping a running job's
// metrics out from under it.
func TestRemoveRejectsLiveJob(t *testing.T) {
	m, srv := newTestServer(t, Config{Registry: telemetry.New(), EventRing: 64})
	snap := postJob(t, srv, `{"workload":"slow","method":"mc","seed":1,"n":4194304}`, http.StatusAccepted)
	if err := m.Remove(snap.ID); err == nil {
		t.Error("Remove accepted a non-terminal job")
	}
	if _, err := m.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, srv, snap.ID)
	if err := m.Remove(snap.ID); err != nil {
		t.Errorf("Remove after terminal state: %v", err)
	}
}

// TestRetentionSweep lets the background sweeper collect a finished job.
func TestRetentionSweep(t *testing.T) {
	m, srv := newTestServer(t, Config{Registry: telemetry.New(), EventRing: 64, Retention: 50 * time.Millisecond})
	snap := postJob(t, srv, `{"workload":"lin","method":"g-s","seed":5,"k":200,"n":2000}`, http.StatusAccepted)
	waitTerminal(t, srv, snap.ID)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := m.Get(snap.ID); err != nil {
			break // swept
		}
		if time.Now().After(deadline) {
			t.Fatal("terminal job survived the retention sweep")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFlightDumpOnFailure asserts a failing job writes its event ring
// as JSONL and surfaces the path in its snapshot.
func TestFlightDumpOnFailure(t *testing.T) {
	dir := t.TempDir()
	m, srv := newTestServer(t, Config{Registry: telemetry.New(), EventRing: 128, FlightDir: dir})
	// A job timeout fails the run with context.DeadlineExceeded.
	snap := postJob(t, srv, `{"workload":"slow","method":"mc","seed":1,"n":4194304,"timeout_seconds":0.05}`, http.StatusAccepted)
	final := waitTerminal(t, srv, snap.ID)
	if final.State != StateFailed {
		t.Fatalf("job state %s, want failed", final.State)
	}
	if final.FlightDump == "" {
		t.Fatal("failed job has no flight_dump path in its snapshot")
	}
	b, err := os.ReadFile(final.FlightDump)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("flight dump is empty")
	}
	sawDone := false
	for _, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("flight dump line is not JSON: %q", line)
		}
		if obj["event"] == "job.done" {
			sawDone = true
		}
	}
	if !sawDone {
		t.Error("flight dump does not contain the terminal job.done event")
	}
	_ = m

	// Server-wide SIGQUIT-path dump.
	paths := m.DumpFlight("test")
	if len(paths) == 0 {
		t.Fatal("DumpFlight wrote nothing")
	}
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("DumpFlight reported %s but it does not exist", p)
		}
		if filepath.Dir(p) != dir {
			t.Errorf("dump %s written outside the flight dir", p)
		}
	}
}

// TestFlightDumpMissingDir checks that a flight dump that cannot be
// written records no path: neither in the failed job's snapshot nor in
// the SIGQUIT dump list.
func TestFlightDumpMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing")
	m, srv := newTestServer(t, Config{Registry: telemetry.New(), EventRing: 128, FlightDir: dir})
	snap := postJob(t, srv, `{"workload":"slow","method":"mc","seed":1,"n":4194304,"timeout_seconds":0.05}`, http.StatusAccepted)
	final := waitTerminal(t, srv, snap.ID)
	if final.State != StateFailed {
		t.Fatalf("job state %s, want failed", final.State)
	}
	if final.FlightDump != "" {
		t.Errorf("failed dump recorded path %q", final.FlightDump)
	}
	if paths := m.DumpFlight("test"); len(paths) != 0 {
		t.Errorf("DumpFlight into a missing directory reported %v", paths)
	}
}

// TestJobStatusETA asserts a running job's status JSON carries the
// throughput estimate and ETA from the progress gauges.
func TestJobStatusETA(t *testing.T) {
	_, srv := newTestServer(t, Config{Registry: telemetry.New(), EventRing: 64})
	snap := postJob(t, srv, `{"workload":"slow","method":"mc","seed":1,"n":4194304,"workers":2}`, http.StatusAccepted)
	deadline := time.Now().Add(60 * time.Second)
	for {
		s := getSnapshot(t, srv, snap.ID)
		if s.State.Terminal() {
			t.Fatal("slow job finished before progress was observed")
		}
		if p := s.Progress; p != nil && p.SimsPerSec > 0 {
			if math.IsInf(p.ETASeconds, 0) || math.IsNaN(p.ETASeconds) || p.ETASeconds < 0 {
				t.Fatalf("ETA = %v, want finite and non-negative", p.ETASeconds)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("running job never reported sims_per_sec in its status JSON")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.NewRequest("DELETE", srv.URL+"/v1/jobs/"+snap.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := http.DefaultClient.Do(resp); err == nil {
		r.Body.Close()
	}
	waitTerminal(t, srv, snap.ID)
}
