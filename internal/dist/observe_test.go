package dist

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TestStitchedTrace runs a distributed job and checks the cluster-wide
// trace: the job trace carries the coordinator's "dist" root, one
// "lease" child per grant, and — grafted under each completed lease —
// the worker's own span tree, clock-normalized and clamped so the
// stitched trace stays monotonic.
func TestStitchedTrace(t *testing.T) {
	h := newHarness(t, Config{RangeTarget: 4, LeaseTTL: 5 * time.Second})
	h.startWorkers(t, 2)
	job := runDistributed(t, h, jobs.Request{Workload: "slow", Method: "g-s", Seed: 61, K: 200, N: 3000})

	snaps := job.Telemetry().TraceData().Snapshot()
	byID := map[int64]telemetry.SpanSnapshot{}
	var dist telemetry.SpanSnapshot
	var leases, workerRoots []telemetry.SpanSnapshot
	for _, s := range snaps {
		byID[s.ID] = s
		switch s.Name {
		case "dist":
			dist = s
		case "lease":
			leases = append(leases, s)
		case "worker.lease":
			workerRoots = append(workerRoots, s)
		}
	}
	if dist.ID == 0 {
		t.Fatal("job trace has no coordinator dist span")
	}
	if tid, _ := dist.Attrs["trace_id"].(string); tid != traceIDFor(job.ID()) {
		t.Fatalf("dist span trace_id = %v, want %s", dist.Attrs["trace_id"], traceIDFor(job.ID()))
	}
	if len(leases) == 0 {
		t.Fatal("job trace has no lease spans")
	}
	for _, l := range leases {
		if l.ParentID != dist.ID {
			t.Fatalf("lease span %d parented under %d, want dist %d", l.ID, l.ParentID, dist.ID)
		}
		if l.Running {
			t.Fatalf("lease span %d still running after the job finished", l.ID)
		}
		if _, ok := l.Attrs["worker"]; !ok {
			t.Fatalf("lease span missing worker attr: %v", l.Attrs)
		}
	}
	if len(workerRoots) == 0 {
		t.Fatal("no worker spans were grafted into the job trace")
	}
	seenWorkers := map[string]bool{}
	for _, wspan := range workerRoots {
		worker, _ := wspan.Attrs["worker"].(string)
		if worker == "" {
			t.Fatalf("grafted span missing worker tag: %v", wspan.Attrs)
		}
		seenWorkers[worker] = true
		if _, ok := wspan.Attrs["lease"].(string); !ok {
			t.Fatalf("grafted span missing lease tag: %v", wspan.Attrs)
		}
		if wspan.Running {
			t.Fatal("grafted worker span still marked running")
		}
		parent, ok := byID[wspan.ParentID]
		if !ok || parent.Name != "lease" {
			t.Fatalf("grafted worker span parented under %q, want a lease span", parent.Name)
		}
		// Monotonicity after clock normalization: the grafted span must
		// sit inside its enclosing lease span's window.
		if wspan.StartUS < parent.StartUS || wspan.StartUS+wspan.DurUS > parent.StartUS+parent.DurUS {
			t.Fatalf("grafted span [%d,%d] escapes lease window [%d,%d]",
				wspan.StartUS, wspan.StartUS+wspan.DurUS, parent.StartUS, parent.StartUS+parent.DurUS)
		}
	}
	if len(seenWorkers) == 0 {
		t.Fatal("no worker identities in the stitched trace")
	}

	// The jobs API serves the stitched result as one Chrome trace.
	resp, err := http.Get(h.srv.URL + "/v1/jobs/" + job.ID() + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var chrome struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatalf("trace endpoint not Chrome JSON: %v", err)
	}
	tagged := 0
	for _, ev := range chrome.TraceEvents {
		if w, _ := ev.Args["worker"].(string); w != "" {
			tagged++
		}
	}
	if tagged == 0 {
		t.Fatal("Chrome trace has no worker-tagged events")
	}
}

// TestClusterFederation checks the metrics-federation plane after a
// distributed run: GET /v1/cluster aggregates the fleet, the
// coordinator registry republishes worker snapshots under per-worker
// scopes, and cluster-level aggregates exist.
func TestClusterFederation(t *testing.T) {
	h := newHarness(t, Config{RangeTarget: 4})
	h.startWorkers(t, 2)
	runDistributed(t, h, jobs.Request{Workload: "lin", Method: "g-s", Seed: 62, K: 200, N: 2000})

	resp, err := http.Get(h.srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cluster: status %d", resp.StatusCode)
	}
	var sum ClusterSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Workers) != 2 {
		t.Fatalf("cluster reports %d workers, want 2", len(sum.Workers))
	}
	if sum.Samples != 2000 {
		t.Fatalf("cluster samples = %d, want 2000", sum.Samples)
	}
	if sum.LeasesCompleted == 0 || sum.LeasesGranted < sum.LeasesCompleted {
		t.Fatalf("lease counters inconsistent: granted %d completed %d",
			sum.LeasesGranted, sum.LeasesCompleted)
	}
	if sum.GeneratedUnixUS == 0 {
		t.Fatal("summary missing generation timestamp")
	}
	for i := 1; i < len(sum.Workers); i++ {
		if sum.Workers[i-1].ID >= sum.Workers[i].ID {
			t.Fatalf("workers not sorted by ID: %s before %s", sum.Workers[i-1].ID, sum.Workers[i].ID)
		}
	}
	// The job is done and no worker holds a lease, so the fleet is idle:
	// a finished lease's rate must not read as live throughput.
	if sum.SimsPerSec != 0 {
		t.Fatalf("idle fleet reports %.0f sims/s", sum.SimsPerSec)
	}
	for _, w := range sum.Workers {
		if w.SimsPerSec != 0 {
			t.Fatalf("idle worker %s reports %.0f sims/s", w.ID, w.SimsPerSec)
		}
	}

	// Federated series: per-worker scopes plus cluster aggregates on the
	// coordinator registry.
	var perWorker, cluster, idleRate bool
	for _, p := range h.reg.Snapshot() {
		if strings.HasPrefix(p.Scope, "dist_worker_w") {
			perWorker = true
		}
		if p.Scope == "cluster" && p.Name == "workers" && p.Value >= 2 {
			cluster = true
		}
		if p.Scope == "cluster" && p.Name == "sims_per_sec" {
			if p.Value != 0 {
				t.Fatalf("idle fleet's cluster sims_per_sec gauge reads %.0f", p.Value)
			}
			idleRate = true
		}
	}
	if !perWorker {
		t.Fatal("no dist_worker_<id> series federated into the coordinator registry")
	}
	if !cluster {
		t.Fatal("cluster scope missing the workers gauge")
	}
	if !idleRate {
		t.Fatal("cluster scope missing the sims_per_sec gauge")
	}
}

// TestWorkerAlertForwarding checks the health plane: an alert the
// worker's watchdog raised (its health gauge, set the way the watchdog
// sets it) reaches the coordinator in the metrics snapshot that every
// renewal and result upload carries, lands in the worker's status record,
// and is forwarded to the global event stream exactly once although every
// later snapshot reports it again. "renewal" runs leases that renew many
// times; in "short_lease" both leases finish before their first renewal,
// so only the result uploads carry the snapshot.
func TestWorkerAlertForwarding(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		req  jobs.Request
	}{
		// Short TTL → frequent renewals; slow workload → leases live long
		// enough to renew.
		{"renewal", Config{RangeTarget: 2, LeaseTTL: 60 * time.Millisecond, MaxAttempts: 10},
			jobs.Request{Workload: "slow", Method: "g-s", Seed: 63, K: 200, N: 4000}},
		// The default 15 s TTL renews after 5 s; these leases take
		// milliseconds.
		{"short_lease", Config{RangeTarget: 2},
			jobs.Request{Workload: "lin", Method: "g-s", Seed: 63, K: 200, N: 4000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, tc.cfg)
			h.reg.SetBus(telemetry.NewBus(512))
			coordSub := h.reg.Bus().Subscribe(256)
			defer coordSub.Close()

			wreg := telemetry.New()
			wreg.Scope(wire.ScopeHealth).Gauge("fake_storm").Set(1)
			ctx, cancel := context.WithCancel(context.Background())
			workerDone := make(chan struct{})
			go func() {
				defer close(workerDone)
				RunWorker(ctx, WorkerConfig{
					Coordinator:  h.srv.URL,
					ID:           "alerty",
					Resolve:      testResolve,
					PollInterval: 2 * time.Millisecond,
					Registry:     wreg,
				})
			}()
			t.Cleanup(func() { cancel(); <-workerDone })

			runDistributed(t, h, tc.req)

			var status WorkerStatus
			for _, w := range workerStatuses(t, h) {
				if w.ID == "alerty" {
					status = w
				}
			}
			if len(status.Health) != 1 || status.Health[0] != "fake_storm" {
				t.Fatalf("worker status health = %q, want [fake_storm]", status.Health)
			}

			forwarded := 0
			for {
				select {
				case ev := <-coordSub.Events():
					if ev.Name == "worker.health.fake_storm" {
						forwarded++
						if w, _ := ev.Fields["worker"].(string); w != "alerty" {
							t.Fatalf("forwarded alert tagged %v, want alerty", ev.Fields["worker"])
						}
					}
					continue
				default:
				}
				break
			}
			if forwarded != 1 {
				t.Fatalf("alert forwarded %d times, want exactly once", forwarded)
			}
		})
	}
}
