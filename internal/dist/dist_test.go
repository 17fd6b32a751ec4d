package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/jobs"
	"repro/internal/surrogate"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// spinMetric burns CPU per evaluation so a distributed job runs long
// enough to lose a worker mid-flight.
type spinMetric struct {
	m    repro.Metric
	spin int
}

func (s *spinMetric) Dim() int { return s.m.Dim() }
func (s *spinMetric) Value(x []float64) float64 {
	v := 1.0
	for i := 0; i < s.spin; i++ {
		v = math.Sqrt(v + float64(i))
	}
	if v < 0 {
		panic("unreachable")
	}
	return s.m.Value(x)
}

func testResolve(name string) (repro.Metric, error) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 4.5}
	switch name {
	case "lin":
		return lin, nil
	case "slow":
		return &spinMetric{m: lin, spin: 15000}, nil
	}
	return nil, fmt.Errorf("test: unknown workload %q", name)
}

// harness wires a manager, a coordinator and an httptest server the way
// sramserverd does.
type harness struct {
	mgr   *jobs.Manager
	coord *Coordinator
	srv   *httptest.Server
	reg   *telemetry.Registry
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	reg := telemetry.New()
	cfg.Registry = reg
	coord := NewCoordinator(cfg)
	mgr := jobs.NewManager(jobs.Config{
		Resolve:     testResolve,
		Registry:    reg,
		Executors:   4,
		Distributor: coord.Run,
	})
	mux := http.NewServeMux()
	mux.Handle("/v1/dist/", coord.Handler())
	mux.Handle("/v1/cluster", coord.Handler())
	mux.Handle("/", jobs.Handler(mgr))
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		mgr.Drain(ctx)
		coord.Stop()
	})
	return &harness{mgr: mgr, coord: coord, srv: srv, reg: reg}
}

// startWorkers launches n in-process workers against the harness and
// returns their individual cancel functions.
func (h *harness) startWorkers(t *testing.T, n int) []context.CancelFunc {
	t.Helper()
	cancels := make([]context.CancelFunc, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		wg.Add(1)
		go func(i int, ctx context.Context) {
			defer wg.Done()
			RunWorker(ctx, WorkerConfig{
				Coordinator:  h.srv.URL,
				ID:           fmt.Sprintf("w%d", i),
				Resolve:      testResolve,
				PollInterval: 5 * time.Millisecond,
				Registry:     telemetry.New(),
			})
		}(i, ctx)
	}
	t.Cleanup(func() {
		for _, c := range cancels {
			c()
		}
		wg.Wait()
	})
	return cancels
}

// canonical renders a Result with wall-clock fields zeroed for exact
// comparison.
func canonical(t *testing.T, res *repro.Result) string {
	t.Helper()
	r := *res
	r.Stage1Seconds, r.Stage2Seconds = 0, 0
	if r.Report != nil {
		r.Report = r.Report.Deterministic()
	}
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func singleNode(t *testing.T, workload string, opts repro.Options) string {
	t.Helper()
	metric, err := testResolve(workload)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.EstimateContext(context.Background(), metric, opts)
	if err != nil {
		t.Fatal(err)
	}
	return canonical(t, res)
}

func runDistributed(t *testing.T, h *harness, req jobs.Request) *jobs.Job {
	t.Helper()
	req.Distribute = true
	job, err := h.mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("distributed job did not finish")
	}
	if err := job.Err(); err != nil {
		t.Fatalf("distributed job failed: %v", err)
	}
	return job
}

// A distributed run is byte-identical to the single-node estimate, for
// every method that shards and at several worker counts.
func TestDistributedBitIdentical(t *testing.T) {
	reqs := []jobs.Request{
		{Workload: "lin", Method: "g-s", Seed: 21, K: 200, N: 3000},
		{Workload: "lin", Method: "g-c", Seed: 22, K: 200, N: 3000},
		{Workload: "lin", Method: "mis", Seed: 23, K: 400, N: 3000},
		{Workload: "lin", Method: "mnis", Seed: 24, K: 200, N: 3000},
		{Workload: "lin", Method: "mc", Seed: 25, N: 50000},
		{Workload: "lin", Method: "blockade", Seed: 26, K: 300, N: 20000},
		{Workload: "lin", Method: "subset", Seed: 27, N: 2000},
	}
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			h := newHarness(t, Config{RangeTarget: 6, LeaseTTL: 5 * time.Second})
			h.startWorkers(t, workers)
			for _, req := range reqs {
				want := singleNode(t, req.Workload, req.Options())
				job := runDistributed(t, h, req)
				got := canonical(t, job.Result())
				if got != want {
					t.Fatalf("%s: distributed bytes differ\n got: %s\nwant: %s", req.Method, got, want)
				}
				if !job.Snapshot().Distributed {
					t.Fatalf("%s: snapshot not marked distributed", req.Method)
				}
			}
		})
	}
}

// workerStatuses fetches the workers of GET /v1/cluster.
func workerStatuses(t *testing.T, h *harness) []WorkerStatus {
	t.Helper()
	resp, err := http.Get(h.srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum ClusterSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	return sum.Workers
}

// Killing a worker mid-job loses nothing: its lease expires, the range
// is reassigned, and the result is still bit-identical.
func TestWorkerKillMidJob(t *testing.T) {
	h := newHarness(t, Config{RangeTarget: 8, LeaseTTL: 250 * time.Millisecond, MaxAttempts: 8})
	cancels := h.startWorkers(t, 2)

	req := jobs.Request{Workload: "slow", Method: "g-s", Seed: 31, K: 200, N: 4000}
	want := singleNode(t, req.Workload, req.Options())

	req.Distribute = true
	job, err := h.mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Kill worker 0 the moment it holds a lease; the slow metric keeps
	// every range running far longer than this polling loop's latency,
	// so the cancellation lands mid-evaluation.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("worker 0 never took a lease")
		}
		var active int
		for _, w := range workerStatuses(t, h) {
			if w.ID == "w0" {
				active = w.Active
			}
		}
		if active > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancels[0]()

	select {
	case <-job.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("job did not survive the worker kill")
	}
	if err := job.Err(); err != nil {
		t.Fatalf("job failed after worker kill: %v", err)
	}
	if got := canonical(t, job.Result()); got != want {
		t.Fatalf("post-kill bytes differ\n got: %s\nwant: %s", got, want)
	}
	// The killed worker's lease must have been reclaimed by expiry, not
	// finished gracefully.
	var expired int64
	for _, w := range workerStatuses(t, h) {
		expired += w.Expired
	}
	if expired == 0 {
		t.Fatal("no lease expired — the kill did not land mid-lease")
	}
}

// Protocol-level checks: a worker whose replayed prefix disagrees with
// the job's is rejected with a 409 problem and its range requeued.
func TestPrefixDigestMismatch(t *testing.T) {
	h := newHarness(t, Config{RangeTarget: 4, LeaseTTL: 10 * time.Second, MaxAttempts: 10})
	req := jobs.Request{Workload: "lin", Method: "g-s", Seed: 41, K: 200, N: 2048, Distribute: true}
	job, err := h.mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	post := func(path string, in any) (*http.Response, []byte) {
		t.Helper()
		b, _ := json.Marshal(in)
		resp, err := http.Post(h.srv.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}
	poll := func(worker string) *Lease {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			resp, body := post("/v1/dist/poll", PollRequest{Worker: WorkerInfo{ID: worker}})
			if resp.StatusCode == http.StatusOK {
				var l Lease
				if err := json.Unmarshal(body, &l); err != nil {
					t.Fatal(err)
				}
				return &l
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatal("no lease granted")
		return nil
	}
	evaluate := func(l *Lease) *repro.PartialRun {
		t.Helper()
		metric, _ := testResolve(l.Spec.Workload)
		run, err := repro.EstimatePartial(context.Background(), metric, l.Spec.Options(), []repro.ShardRange{l.Range})
		if err != nil {
			t.Fatal(err)
		}
		return run
	}

	// First range: honest upload fixes the job's prefix digest.
	l1 := poll("honest")
	run1 := evaluate(l1)
	resp, _ := post("/v1/dist/leases/"+l1.ID+"/result", ResultUpload{
		PrefixDigest: run1.Prefix.Digest(), Prefix: &run1.Prefix, Chunks: run1.Chunks,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("honest upload: status %d", resp.StatusCode)
	}

	// Second range: divergent digest → 409 problem, range requeued.
	l2 := poll("rogue")
	run2 := evaluate(l2)
	resp, body := post("/v1/dist/leases/"+l2.ID+"/result", ResultUpload{
		PrefixDigest: "deadbeef", Chunks: run2.Chunks,
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("rogue upload: status %d, body %s", resp.StatusCode, body)
	}
	var p jobs.Problem
	if err := json.Unmarshal(body, &p); err != nil || p.Type != wire.ProblemPrefixMismatch {
		t.Fatalf("rogue problem: %s (err %v)", body, err)
	}

	// A stale lease ID is gone.
	resp, _ = post("/v1/dist/leases/"+l2.ID+"/result", ResultUpload{PrefixDigest: run2.Prefix.Digest()})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("stale lease: status %d", resp.StatusCode)
	}

	// Honest workers finish the job — including the requeued range.
	h.startWorkers(t, 2)
	select {
	case <-job.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("job did not recover from the rogue worker")
	}
	if err := job.Err(); err != nil {
		t.Fatal(err)
	}
	want := singleNode(t, "lin", jobs.Request{Workload: "lin", Method: "g-s", Seed: 41, K: 200, N: 2048}.Options())
	if got := canonical(t, job.Result()); got != want {
		t.Fatalf("recovered bytes differ\n got: %s\nwant: %s", got, want)
	}
}

// The worker registry reports health and throughput per worker.
func TestWorkerRegistry(t *testing.T) {
	h := newHarness(t, Config{RangeTarget: 4})
	h.startWorkers(t, 2)
	runDistributed(t, h, jobs.Request{Workload: "lin", Method: "g-s", Seed: 51, K: 200, N: 2000})

	resp, err := http.Get(h.srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum ClusterSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	ws := sum.Workers
	if len(ws) == 0 {
		t.Fatal("no workers registered")
	}
	var samples, completed int64
	for _, w := range ws {
		samples += w.Samples
		completed += w.Completed
		if w.LastSeen == "" {
			t.Fatalf("worker %s has no last-seen time", w.ID)
		}
	}
	if samples != 2000 || completed == 0 {
		t.Fatalf("registry totals: samples %d, completed %d", samples, completed)
	}
}
