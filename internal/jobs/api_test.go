package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
)

// postJobFull submits with optional headers and returns the raw
// response (callers close the body).
func postJobFull(t *testing.T, srv *httptest.Server, body string, headers map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs?wait=1", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeSnap(t *testing.T, resp *http.Response) Snapshot {
	t.Helper()
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// An Idempotency-Key makes submission at-most-once: the duplicate
// returns the original job with the replay header and runs nothing new;
// reusing the key with a different body is a 409 conflict problem.
func TestIdempotencyKey(t *testing.T) {
	m, srv := newTestServer(t, Config{})
	body := `{"workload":"lin","method":"g-s","seed":9,"k":200,"n":1000}`
	hdr := map[string]string{"Idempotency-Key": "k-1"}

	first := postJobFull(t, srv, body, hdr)
	if first.StatusCode != http.StatusOK || first.Header.Get("Idempotent-Replay") != "" {
		t.Fatalf("first submit: status %d, replay %q", first.StatusCode, first.Header.Get("Idempotent-Replay"))
	}
	s1 := decodeSnap(t, first)

	second := postJobFull(t, srv, body, hdr)
	if second.StatusCode != http.StatusOK || second.Header.Get("Idempotent-Replay") != "true" {
		t.Fatalf("replay: status %d, replay header %q", second.StatusCode, second.Header.Get("Idempotent-Replay"))
	}
	s2 := decodeSnap(t, second)
	if s2.ID != s1.ID {
		t.Fatalf("replay returned a different job: %s vs %s", s2.ID, s1.ID)
	}
	if got := len(m.List()); got != 1 {
		t.Fatalf("replay created a job: %d tracked", got)
	}

	conflict := postJobFull(t, srv, `{"workload":"lin","seed":10}`, hdr)
	p := decodeProblem(t, conflict)
	if conflict.StatusCode != http.StatusConflict || p.Type != ProblemType+"idempotency-conflict" {
		t.Fatalf("conflict: status %d, type %s", conflict.StatusCode, p.Type)
	}
}

func decodeProblem(t *testing.T, resp *http.Response) *Problem {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/problem+json" {
		t.Fatalf("error content-type %q", ct)
	}
	var p Problem
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	return &p
}

// Every non-2xx response is an RFC 9457 problem document; validation
// failures itemize the offending fields.
func TestProblemDocuments(t *testing.T) {
	_, srv := newTestServer(t, Config{})

	resp := postJobFull(t, srv, `{"workload":"lin","k":-1,"n":-2}`, nil)
	p := decodeProblem(t, resp)
	if resp.StatusCode != http.StatusBadRequest || p.Type != ProblemType+"invalid-request" {
		t.Fatalf("validation: status %d, type %s", resp.StatusCode, p.Type)
	}
	if len(p.Errors) != 2 {
		t.Fatalf("want per-field errors for K and N, got %q", p.Errors)
	}
	if p.Status != http.StatusBadRequest || p.Title == "" {
		t.Fatalf("incomplete problem: %+v", p)
	}

	get, err := http.Get(srv.URL + "/v1/jobs/zzz")
	if err != nil {
		t.Fatal(err)
	}
	p = decodeProblem(t, get)
	if get.StatusCode != http.StatusNotFound || p.Type != ProblemType+"not-found" {
		t.Fatalf("not-found: status %d, type %s", get.StatusCode, p.Type)
	}

	dist := postJobFull(t, srv, `{"workload":"lin","distribute":true}`, nil)
	p = decodeProblem(t, dist)
	if dist.StatusCode != http.StatusNotImplemented || p.Type != ProblemType+"distribution-disabled" {
		t.Fatalf("distribute without workers: status %d, type %s", dist.StatusCode, p.Type)
	}
}

// The job list is a paginated envelope with a state filter.
func TestListPagination(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	for i := 0; i < 5; i++ {
		resp := postJobFull(t, srv, `{"workload":"lin","seed":`+string(rune('0'+i))+`,"k":100,"n":500}`, nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
	}
	getList := func(query string) JobList {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs%s: status %d", query, resp.StatusCode)
		}
		var jl JobList
		if err := json.NewDecoder(resp.Body).Decode(&jl); err != nil {
			t.Fatal(err)
		}
		return jl
	}
	all := getList("")
	if all.Total != 5 || len(all.Jobs) != 5 || all.NextOffset != nil {
		t.Fatalf("full list: %+v", all)
	}
	page := getList("?limit=2&offset=2")
	if page.Total != 5 || len(page.Jobs) != 2 || page.NextOffset == nil || *page.NextOffset != 4 {
		t.Fatalf("window: %+v", page)
	}
	if page.Jobs[0].ID != all.Jobs[2].ID {
		t.Fatalf("offset ignored: %s vs %s", page.Jobs[0].ID, all.Jobs[2].ID)
	}
	done := getList("?state=done")
	if done.Total != 5 {
		t.Fatalf("state filter: %+v", done)
	}
	if none := getList("?state=running"); none.Total != 0 || len(none.Jobs) != 0 {
		t.Fatalf("empty filter: %+v", none)
	}
	resp, err := http.Get(srv.URL + "/v1/jobs?state=bogus")
	if err != nil {
		t.Fatal(err)
	}
	if p := decodeProblem(t, resp); resp.StatusCode != http.StatusBadRequest || p.Type != ProblemType+"invalid-request" {
		t.Fatalf("bogus state: status %d, type %s", resp.StatusCode, p.Type)
	}
}

// The content-addressed cache replays an identical completed run with
// zero new simulations and an identical result, while a different seed
// misses.
func TestResultCache(t *testing.T) {
	m, srv := newTestServer(t, Config{CacheSize: 8})
	body := `{"workload":"lin","method":"g-s","seed":4,"k":200,"n":1000}`

	first := decodeSnap(t, postJobFull(t, srv, body, nil))
	if first.State != StateDone || first.Cached {
		t.Fatalf("first run: %+v", first)
	}

	second := decodeSnap(t, postJobFull(t, srv, body, nil))
	if second.State != StateDone || !second.Cached || second.ID == first.ID {
		t.Fatalf("cache hit not marked: %+v", second)
	}
	b1, _ := json.Marshal(first.Result)
	b2, _ := json.Marshal(second.Result)
	if string(b1) != string(b2) {
		t.Fatalf("cached result differs:\n%s\n%s", b2, b1)
	}
	if second.Sims != first.Result.TotalSims {
		t.Fatalf("cached snapshot sims %d, want replayed cost %d", second.Sims, first.Result.TotalSims)
	}
	// Zero new simulations: the cached job's own counter never moved.
	job, err := m.Get(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.counter.Count() != 0 {
		t.Fatalf("cache hit simulated %d samples", job.counter.Count())
	}
	if m.cache.len() != 1 {
		t.Fatalf("cache size %d", m.cache.len())
	}

	miss := decodeSnap(t, postJobFull(t, srv, `{"workload":"lin","method":"g-s","seed":5,"k":200,"n":1000}`, nil))
	if miss.Cached {
		t.Fatal("different seed served from cache")
	}
}

// TestResultCacheIgnoresWorkers: estimates are bit-identical at every
// worker count, so a repeat of a request at another worker count is a
// cache hit with zero new simulations.
func TestResultCacheIgnoresWorkers(t *testing.T) {
	m, srv := newTestServer(t, Config{CacheSize: 8, Resolve: repro.WorkloadByName})
	first := decodeSnap(t, postJobFull(t, srv, `{"workload":"readcurrent","method":"mnis","seed":6,"n":1000,"workers":1}`, nil))
	if first.State != StateDone || first.Cached {
		t.Fatalf("first run: %+v", first)
	}
	second := decodeSnap(t, postJobFull(t, srv, `{"workload":"readcurrent","method":"mnis","seed":6,"n":1000,"workers":2}`, nil))
	if second.State != StateDone || !second.Cached {
		t.Fatalf("workers 2 repeat not served from the cache: %+v", second)
	}
	job, err := m.Get(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.counter.Count() != 0 {
		t.Fatalf("cache hit simulated %d samples", job.counter.Count())
	}
}

// Distribute submissions are validated up front: no distributor is 501
// material, unshardable options reject before anything queues.
func TestDistributeValidation(t *testing.T) {
	drainNow := func(m *Manager) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		m.Drain(ctx)
	}
	m := NewManager(Config{Resolve: testResolve})
	defer drainNow(m)
	if _, err := m.Submit(Request{Workload: "lin", Distribute: true}); !errors.Is(err, ErrDistributionDisabled) {
		t.Fatalf("distribute without distributor: %v", err)
	}
	m2 := NewManager(Config{Resolve: testResolve, Distributor: func(ctx context.Context, job *Job) (*repro.Result, error) {
		panic("unused")
	}})
	defer drainNow(m2)
	if _, err := m2.Submit(Request{Workload: "lin", Distribute: true, Target: 0.5}); !errors.Is(err, repro.ErrNotShardable) {
		t.Fatalf("unshardable distribute: %v", err)
	}
}
