package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/client"
	"repro/internal/jobs"
	"repro/internal/mc"
	"repro/internal/obslog"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// server is an in-process estimation service configured like sramserverd's
// defaults plus a 64-entry result cache, listening on loopback.
type server struct {
	mgr   *jobs.Manager
	reg   *telemetry.Registry
	srv   *http.Server
	serve chan error
	http  *http.Client
	cl    *client.Client
}

// startServer brings the service up and returns once it answered one API
// call. resolve builds each job's metric.
func startServer(ctx context.Context, resolve func(string) (repro.Metric, error)) (*server, error) {
	log, err := obslog.New(io.Discard, obslog.FormatText, "info")
	if err != nil {
		return nil, err
	}
	s := &server{reg: telemetry.New(), serve: make(chan error, 1)}
	s.mgr = jobs.NewManager(jobs.Config{
		QueueSize: 64, Executors: 1, Registry: s.reg, EventRing: 256,
		Heartbeat: 15 * time.Second, CacheSize: 64, Log: log, Resolve: resolve,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.mgr.BeginDrain()
		return nil, errors.Join(err, s.mgr.Drain(ctx))
	}
	s.srv = &http.Server{Handler: jobs.Handler(s.mgr), ReadHeaderTimeout: 5 * time.Second}
	go func() { s.serve <- s.srv.Serve(ln) }()
	s.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU()}}
	s.cl = client.New("http://"+ln.Addr().String(), s.http)
	if _, err := s.cl.Workloads(ctx); err != nil {
		return nil, errors.Join(err, s.stop(ctx))
	}
	return s, nil
}

// stop drains the manager, shuts the listener down and waits for Serve
// to return.
func (s *server) stop(ctx context.Context) error {
	s.mgr.BeginDrain()
	drainErr := s.mgr.Drain(ctx)
	shutErr := s.srv.Shutdown(ctx)
	serveErr := <-s.serve
	if errors.Is(serveErr, http.ErrServerClosed) {
		serveErr = nil
	}
	s.http.CloseIdleConnections()
	return errors.Join(drainErr, shutErr, serveErr)
}

// setUpServer starts the service reps times and returns each start-up's
// time. It stops every server but the last, which it returns.
func setUpServer(ctx context.Context, resolve func(string) (repro.Metric, error), reps int) ([]float64, *server, error) {
	times := make([]float64, 0, reps)
	for i := 0; ; i++ {
		t0 := time.Now()
		s, err := startServer(ctx, resolve)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, since(t0))
		if i == reps-1 {
			return times, s, nil
		}
		if err := s.stop(ctx); err != nil {
			return nil, nil, err
		}
	}
}

// repeatOf returns the request that request i repeats, or -1 for a fresh
// request. Every fifth request repeats the one sent 11 earlier, which is
// always fresh: repeating a repeat would chain every hit back to one
// early request, which the FIFO cache eventually evicts.
func repeatOf(i int) int {
	if i >= 11 && i%5 == 4 {
		return i - 11
	}
	return -1
}

// requests builds the request sequence of seed: readcurrent/MNIS jobs of
// N samples, fresh request i on seed seed+i.
func requests(w workload, seed int64, count int) []jobs.Request {
	reqs := make([]jobs.Request, count)
	for i := range reqs {
		if o := repeatOf(i); o >= 0 {
			reqs[i] = reqs[o]
			continue
		}
		reqs[i] = jobs.Request{Workload: w.metric, Method: string(repro.MNIS), N: w.n, Seed: seed + int64(i)}
	}
	return reqs
}

// served is one request as the client saw it, plus the library result of
// a fresh job.
type served struct {
	latency float64
	snap    jobs.Snapshot
	err     error
	result  *repro.Result
}

// loop sends reqs in a closed loop from one client goroutine per CPU and
// returns every reply and the loop's wall time. A repeat waits for its
// original to complete, so it is a cache hit by construction. With root
// non-nil each request is recorded as a child span of it.
func (s *server) loop(ctx context.Context, reqs []jobs.Request, root *telemetry.Span) ([]served, float64) {
	out := make([]served, len(reqs))
	done := make([]chan struct{}, len(reqs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				if o := repeatOf(i); o >= 0 {
					select {
					case <-done[o]:
					case <-ctx.Done():
						return
					}
				}
				span := root.Child("job")
				t := time.Now()
				snap, err := s.cl.SubmitWait(ctx, reqs[i])
				out[i] = served{latency: since(t), snap: snap, err: err}
				span.SetAttr("id", snap.ID)
				span.SetAttr("cached", snap.Cached)
				span.End()
				close(done[i])
			}
		}()
	}
	wg.Wait()
	wall := since(t0)
	for i := range out {
		if out[i].err == nil && !out[i].snap.Cached {
			if job, err := s.mgr.Get(out[i].snap.ID); err == nil {
				out[i].result = job.Result()
			}
		}
	}
	return out, wall
}

// checkServed applies the serving checks: every job done, every repeat
// served from the cache with its original's Pf, no job lost, and no
// simulation run for a cached job (circuitSims, counted under the
// service, must equal the fresh jobs' reported cost).
func checkServed(m *measurement, s *server, out []served, circuitSims int64) {
	var fresh int64
	for i, r := range out {
		m.Attempted++
		o := repeatOf(i)
		switch {
		case r.err != nil:
			m.fail("request %d: %v", i, r.err)
		case r.snap.State != jobs.StateDone || r.snap.Result == nil:
			m.fail("request %d: job %s ended %s %s", i, r.snap.ID, r.snap.State, r.snap.Error)
		case o >= 0 && !r.snap.Cached:
			m.fail("request %d: repeat of request %d not served from the cache", i, o)
		case o >= 0 && (out[o].snap.Result == nil ||
			math.Float64bits(r.snap.Result.Pf) != math.Float64bits(out[o].snap.Result.Pf)):
			m.fail("request %d: cached Pf differs from request %d", i, o)
		case o < 0 && r.result == nil:
			m.fail("request %d: job %s has no library result", i, r.snap.ID)
		case !(r.snap.Result.Pf > 0 && r.snap.Result.Pf < 1):
			m.fail("request %d: Pf %v outside (0,1)", i, r.snap.Result.Pf)
		case o < 0:
			fresh += r.result.TotalSims
		}
	}
	if n := len(s.mgr.List()); n != len(out) {
		m.reject("the manager holds %d jobs for %d requests", n, len(out))
	}
	if circuitSims != fresh {
		m.reject("the service ran %d simulations, its fresh jobs report %d", circuitSims, fresh)
	}
}

// shimResolver builds each job's metric behind a timing shim on stats,
// with its spice layer reporting into reg.
func shimResolver(stats *circuitStats, reg *telemetry.Registry) func(string) (repro.Metric, error) {
	return func(name string) (repro.Metric, error) {
		m, err := repro.WorkloadByName(name)
		if err != nil {
			return nil, err
		}
		sh, err := newShim(m, stats)
		if err != nil {
			return nil, err
		}
		sh.SetTelemetry(reg)
		return sh, nil
	}
}

// A serving pass sends its requests in rounds of serveRound, each to a
// fresh service that it starts serveSetupReps times. Host speed is
// sampled before each round, while no service runs.
const (
	serveRound     = 60
	serveSetupReps = 5
)

// measureServe is the untraced pass of the serving workload; latencies
// are the client's.
func measureServe(ctx context.Context, w workload, seed int64, count int, log io.Writer) (*measurement, error) {
	m := newMeasurement(endToEnd, log)
	speed := newHostSpeed(w.parallel)
	n := samplesFor(serveRound * w.runCost)
	var setups, lat, sims []float64
	wall := 0.0
	p := newPace(float64(count) * w.runCost)
	for lo := 0; lo < count; lo += serveRound {
		if !p.next() {
			m.info["stopped_early"] = lo
			break
		}
		speed.sample(n)
		resolve, circuitSims := countingResolver()
		times, s, err := setUpServer(ctx, resolve, serveSetupReps)
		if err != nil {
			return nil, err
		}
		setups = append(setups, times...)
		out, d := s.loop(ctx, requests(w, seed+int64(lo), min(serveRound, count-lo)), nil)
		checkServed(m, s, out, circuitSims())
		if err := s.stop(ctx); err != nil {
			return nil, err
		}
		wall += d
		for i, r := range out {
			lat = append(lat, r.latency)
			if repeatOf(i) < 0 && r.result != nil {
				sims = append(sims, float64(r.result.TotalSims))
			}
		}
	}
	k := speed.scale()
	m.set("setup_s", median(setups)*k)
	m.set("latency_p50_s", median(lat)*k)
	m.set("sims_per_run", median(sims))
	m.set("sims_per_s", sum(sims)/(wall*k))
	m.set("peak_rss_mb", peakRSSMiB())
	m.setSpeed(speed)
	m.info["latency_p50_wall_s"] = median(lat)
	m.info["requests"] = len(lat)
	m.info["jobs_per_s"] = float64(len(lat)) / wall
	m.info["latency_p95_s"] = percentile(lat, 0.95)
	return m, nil
}

// countingResolver builds each job's metric behind an mc.Counter and
// returns, beside the resolver, a function summing every count so far.
func countingResolver() (func(string) (repro.Metric, error), func() int64) {
	var (
		mu       sync.Mutex
		counters []*mc.Counter
	)
	resolve := func(name string) (repro.Metric, error) {
		m, err := repro.WorkloadByName(name)
		if err != nil {
			return nil, err
		}
		c := mc.NewCounter(m)
		mu.Lock()
		counters = append(counters, c)
		mu.Unlock()
		return c, nil
	}
	total := func() int64 {
		mu.Lock()
		defer mu.Unlock()
		var n int64
		for _, c := range counters {
			n += c.Count()
		}
		return n
	}
	return resolve, total
}

// percentile returns the q-quantile of xs by nearest rank.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d[min(len(d)-1, int(math.Ceil(q*float64(len(d))))-1)]
}

// traceServe is the traced pass of the serving workload: the same
// request sequence once against a bare service (for the tracing overhead)
// and once with every job's metric behind the timing shim, each on a
// fresh service so the cache starts empty. Job timings come from the
// snapshots (Created, Started, Finished) and the library results' stage
// seconds; MNIS is not reassembled, so its stage 1 reports as model and
// its stage 2 as mc.
func traceServe(ctx context.Context, w workload, seed int64, count int, out string, log io.Writer) (*measurement, error) {
	m := newMeasurement(perLayer, log)
	reqs := requests(w, seed, count)
	speed := newHostSpeed(w.parallel)
	samples := samplesFor(serveRound * w.runCost)
	speed.sample(samples)

	resolve, circuitSims := countingResolver()
	bare, err := startServer(ctx, resolve)
	if err != nil {
		return nil, err
	}
	bareOut, bareWall := bare.loop(ctx, reqs, nil)
	checkServed(m, bare, bareOut, circuitSims())
	if err := bare.stop(ctx); err != nil {
		return nil, err
	}

	stats, reg := &circuitStats{}, telemetry.New()
	s, err := startServer(ctx, shimResolver(stats, reg))
	if err != nil {
		return nil, err
	}
	tr := telemetry.NewTrace()
	root := tr.StartSpan(nil, "serve")
	res, wall := s.loop(ctx, reqs, root)
	root.End()
	c := stats.snapshot()
	checkServed(m, s, res, c.sims())
	cacheHits := s.reg.Scope(wire.ScopeJobs).Counter("cache_hits_total").Value()
	if err := s.stop(ctx); err != nil {
		return nil, err
	}
	speed.sample(samples) // with the service stopped

	var (
		latency, overhead, queue, run float64
		stage1, stage2                float64
		modelSims, stage2Sims         int64
		failures, n, fresh            int
	)
	for i, r := range res {
		if r.err != nil || r.snap.Result == nil {
			continue
		}
		created, started, finished, err := jobTimes(r.snap)
		if err != nil {
			return nil, err
		}
		latency += r.latency
		overhead += r.latency - finished.Sub(created).Seconds()
		queue += started.Sub(created).Seconds()
		run += finished.Sub(started).Seconds()
		if repeatOf(i) >= 0 || r.result == nil {
			continue
		}
		fresh++
		stage1 += r.result.Stage1Seconds
		stage2 += r.result.Stage2Seconds
		modelSims += r.result.Stage1Sims
		stage2Sims += r.result.Stage2Sims
		failures += r.result.Failures
		n += r.result.N
	}
	if fresh == 0 {
		return m, nil
	}
	workers := float64(runtime.NumCPU())
	perRun := func(v int64) float64 { return float64(v) / float64(fresh) }
	k := speed.scale()
	m.set("sram.scalar_us_per_sim", 1e6*k*c.scalarS/float64(c.scalarSims))
	m.set("sram.batch_us_per_sim", 1e6*k*c.batchS/float64(c.batchSims))
	m.set("sram.scalar_sims", perRun(c.scalarSims))
	m.set("sram.batch_sims", perRun(c.batchSims))
	m.set("sram.batch_calls", perRun(c.batchCalls))
	readSpice(reg).report(m, c.sims())
	m.set("model.sims", perRun(modelSims))
	m.set("gibbs.chain_sims", 0)
	m.set("gibbs.sims_per_sample", 0)
	m.set("mc.stage2_sims", perRun(stage2Sims))
	m.set("mc.fail_frac", float64(failures)/float64(n))
	m.set("mc.pool_util", c.batchS/(stage2*workers))
	m.set("jobs.cache_hits", float64(cacheHits))
	m.set("trace.overhead", wall/bareWall-1)
	m.setShares(latency, map[string]float64{
		"sram.self_share":   c.scalarS + c.batchS/workers,
		"model.self_share":  stage1 - c.scalarS,
		"gibbs.self_share":  0,
		"gibbs.fit_share":   0,
		"mc.self_share":     stage2 - c.batchS/workers,
		"repro.self_share":  run - stage1 - stage2,
		"jobs.self_share":   queue,
		"client.self_share": overhead,
	})
	m.setSpeed(speed)
	m.info["requests"] = count
	return m, writeTrace(tr, out, w.name, seed, m)
}

// jobTimes parses a snapshot's lifecycle timestamps.
func jobTimes(s jobs.Snapshot) (created, started, finished time.Time, err error) {
	for _, f := range []struct {
		dst *time.Time
		v   string
	}{{&created, s.Created}, {&started, s.Started}, {&finished, s.Finished}} {
		if *f.dst, err = time.Parse(time.RFC3339Nano, f.v); err != nil {
			return created, started, finished, fmt.Errorf("job %s: %w", s.ID, err)
		}
	}
	return created, started, finished, nil
}
