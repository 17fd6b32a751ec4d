package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestEventLogAttributesJobs runs two jobs on two executors against a
// registry whose bus is an event log (sramserverd -telemetry). Every
// event of each job must land in the log exactly once, tagged with its
// job, and seq must run 0..n-1 in file order. With EventRing 0 the log
// alone turns the event plane on, so job events still reach it.
func TestEventLogAttributesJobs(t *testing.T) {
	for _, ring := range []int{512, 0} {
		t.Run(fmt.Sprintf("ring=%d", ring), func(t *testing.T) {
			var buf bytes.Buffer
			log := telemetry.NewLogBus(0, &buf)
			reg := telemetry.New()
			reg.SetBus(log)
			m := NewManager(Config{Registry: reg, EventRing: ring, Executors: 2, Resolve: testResolve})
			var jobs []*Job
			for seed := int64(1); seed <= 2; seed++ {
				job, err := m.Submit(Request{Workload: "lin", Method: "g-s", Seed: seed, K: 200, N: 2000})
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, job)
			}
			if err := m.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			log.Close() // orders every publish before the read below
			if err := log.Err(); err != nil {
				t.Fatal(err)
			}

			// Events are compared without seq and t_ms, which are
			// bus-local, as counts of their remaining JSON.
			key := func(line []byte) (string, map[string]any) {
				var obj map[string]any
				if err := json.Unmarshal(line, &obj); err != nil {
					t.Fatalf("event line is not JSON: %v\n%s", err, line)
				}
				seq := obj["seq"]
				delete(obj, "seq")
				delete(obj, "t_ms")
				k, err := json.Marshal(obj)
				if err != nil {
					t.Fatal(err)
				}
				obj["seq"] = seq
				return string(k), obj
			}
			perJob := map[string]map[string]int{}
			for i, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
				k, obj := key([]byte(line))
				if seq, _ := obj["seq"].(float64); seq != float64(i) {
					t.Fatalf("log line %d has seq %v: seq must match file order", i, obj["seq"])
				}
				id, _ := obj["job"].(string)
				if perJob[id] == nil {
					perJob[id] = map[string]int{}
				}
				perJob[id][k]++
			}
			for _, job := range jobs {
				if st := job.Snapshot().State; st != StateDone {
					t.Fatalf("job %s ended %s", job.ID(), st)
				}
				events := job.Events().Ring()
				if int64(len(events)) != job.Events().Seq() {
					t.Fatalf("job %s published %d events but its ring holds %d", job.ID(), job.Events().Seq(), len(events))
				}
				want := map[string]int{}
				for _, ev := range events {
					k, _ := key(ev.Data)
					want[k]++
				}
				if got := perJob[job.ID()]; !reflect.DeepEqual(got, want) {
					t.Fatalf("job %s: log events %v, want each job-bus event once: %v", job.ID(), got, want)
				}
			}
		})
	}
}

// TestBeginDrainRejectsCleanly checks the drain-boundary guarantee: once
// BeginDrain flips the manager, new submissions are rejected with the
// typed draining problem while the already-running job keeps going —
// the server keeps its listener up through this window so clients see a
// clean 503 instead of a connection error.
func TestBeginDrainRejectsCleanly(t *testing.T) {
	m, srv := newTestServer(t, Config{Registry: telemetry.New()})
	snap := postJob(t, srv, `{"workload":"slow","method":"mc","seed":1,"n":4194304}`, http.StatusAccepted)

	m.BeginDrain()
	m.BeginDrain() // idempotent: a second call must not double-close the queue

	if _, err := m.Submit(Request{Workload: "lin"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after BeginDrain: %v, want ErrDraining", err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"lin","method":"g-s","seed":5,"k":200,"n":2000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after BeginDrain: status %d, want 503", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/problem+json" {
		t.Fatalf("drain rejection Content-Type = %q, want application/problem+json", ct)
	}
	var p Problem
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Type != ProblemType+"draining" {
		t.Fatalf("drain rejection type = %q, want %q", p.Type, ProblemType+"draining")
	}

	// The in-flight job survives BeginDrain (only Drain's grace-period
	// expiry cancels it).
	if s := getSnapshot(t, srv, snap.ID).State; s.Terminal() {
		t.Fatalf("running job went %s at BeginDrain, want it to keep running", s)
	}
	if _, err := m.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, srv, snap.ID)
}

// TestSSEGapDetection forces ring eviction and checks both endpoints
// announce the replay gap: a client resuming from a cursor that fell
// off the ring gets a stream.gap meta event before the tail replay,
// instead of a silent discontinuity.
func TestSSEGapDetection(t *testing.T) {
	// Ring of 8 against a run that publishes dozens of progress events:
	// the early lifecycle is guaranteed evicted by the time we resume.
	m, srv := newTestServer(t, Config{Registry: telemetry.New(), EventRing: 8})
	snap := postJob(t, srv, `{"workload":"lin","method":"g-s","seed":5,"k":200,"n":8000}`, http.StatusAccepted)
	waitTerminal(t, srv, snap.ID)

	job, err := m.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	oldest := job.Events().OldestSeq()
	if oldest < 2 {
		t.Fatalf("ring did not wrap (oldest %d) — the gap scenario needs eviction", oldest)
	}

	// Per-job stream, resuming after seq 0.
	resp, closeBody := getSSE(t, srv.URL+"/v1/jobs/"+snap.ID+"/events", "0")
	frames := readSSE(t, resp.Body, 0)
	closeBody()
	if len(frames) < 2 {
		t.Fatalf("got %d frames, want gap + replay", len(frames))
	}
	gap := frames[0]
	if gap.Event != "stream.gap" {
		t.Fatalf("first resumed frame %q, want stream.gap", gap.Event)
	}
	if ra, _ := gap.Data["requested_after"].(float64); ra != 0 {
		t.Fatalf("gap requested_after = %v, want 0", gap.Data["requested_after"])
	}
	reportedOldest, _ := gap.Data["oldest"].(float64)
	missed, _ := gap.Data["missed"].(float64)
	if reportedOldest < 2 || missed != reportedOldest-1 {
		t.Fatalf("gap data = %v, want oldest >= 2 and missed = oldest-1", gap.Data)
	}
	if frames[1].ID != int64(reportedOldest) {
		t.Fatalf("replay after gap starts at %d, want the ring tail %v", frames[1].ID, reportedOldest)
	}
	if frames[len(frames)-1].Event != "job.done" {
		t.Fatalf("resumed stream last event %q, want job.done", frames[len(frames)-1].Event)
	}

	// A resume from within the ring must NOT see a gap event.
	resp2, close2 := getSSE(t, srv.URL+"/v1/jobs/"+snap.ID+"/events", strconv.FormatInt(oldest, 10))
	clean := readSSE(t, resp2.Body, 0)
	close2()
	for _, f := range clean {
		if f.Event == "stream.gap" {
			t.Fatal("in-ring resume reported a spurious gap")
		}
	}

	// Global stream: the same events (tagged) wrapped the global ring
	// too, so resuming from 0 must announce a gap there as well.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/v1/events", nil)
	req.Header.Set("Last-Event-ID", "0")
	gresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	gframes := readSSE(t, gresp.Body, 1) // global stream never self-terminates
	if len(gframes) != 1 || gframes[0].Event != "stream.gap" {
		t.Fatalf("global resume frames = %+v, want a leading stream.gap", gframes)
	}
}

// TestWatchdogAlertDumpsFlightRecorder: a forced watchdog alert on a
// running job writes the job's event ring to the flight-recorder
// directory, named after the job and the alert kind.
func TestWatchdogAlertDumpsFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	m, srv := newTestServer(t, Config{
		Registry: telemetry.New(), EventRing: 64, FlightDir: dir,
	})
	snap := postJob(t, srv, `{"workload":"slow","method":"mc","seed":1,"n":4194304}`, http.StatusAccepted)
	job, err := m.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The watchdog starts when the job does; wait for Running before
	// forcing the alert so the subscription is guaranteed live.
	deadline := time.Now().Add(30 * time.Second)
	for getSnapshot(t, srv, snap.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A Gibbs chain reporting 500 updates with zero acceptance trips the
	// chain_stalled trigger.
	job.Telemetry().Emit("gibbs.chain", map[string]any{"updates": 500, "acceptance": 0.0})

	// The watchdog dumps on its own goroutine; poll for the file.
	dump := filepath.Join(dir, snap.ID+"-alert-chain_stalled.jsonl")
	deadline = time.Now().Add(30 * time.Second)
	for {
		if info, err := os.Stat(dump); err == nil && info.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alert produced no flight-recorder event dump %s", dump)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if _, err := m.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, srv, snap.ID)
}

// TestServedJobCountsSolves: a served job's registry reaches the
// metric's transistor-level solver, so the job's metrics and trace carry
// the spice counters, and the stage spans' solves add up to the
// registry's.
func TestServedJobCountsSolves(t *testing.T) {
	m := NewManager(Config{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		m.Drain(ctx)
	})
	job, err := m.Submit(Request{Workload: "readcurrent", Method: "g-s", Seed: 1, K: 200, N: 2000})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("job did not finish")
	}
	if err := job.Err(); err != nil {
		t.Fatal(err)
	}
	solves := job.Telemetry().Scope("spice").Counter("solves_total").Value()
	if solves == 0 {
		t.Fatal("the served job's registry counted no spice solves")
	}
	var stages float64
	for _, s := range job.Telemetry().TraceData().Snapshot() {
		if s.Name == "stage1" || s.Name == "stage2" {
			stages += s.Counters["spice.solves_total"]
		}
	}
	if stages != float64(solves) {
		t.Fatalf("stage1+stage2 spans count %v spice solves, the registry %d", stages, solves)
	}
}
