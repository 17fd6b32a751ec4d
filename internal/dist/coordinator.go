package dist

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/jobs"
	"repro/internal/mc"
	"repro/internal/obslog"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Config configures a Coordinator. The zero value is usable.
type Config struct {
	// LeaseTTL is how long a granted lease lives without a renewal
	// (default 15s). Expired leases return their range to the queue.
	LeaseTTL time.Duration
	// MaxAttempts is how many times one range may fail or expire before
	// the whole job fails (default 3) — the backstop against a range
	// that kills every worker it lands on.
	MaxAttempts int
	// RangeTarget is the number of leases a job is split into (default
	// 16; the split is chunk-aligned, so small jobs yield fewer).
	RangeTarget int
	// Registry, when non-nil, receives coordinator metrics under scope
	// "dist", per-worker health and federated worker metrics under
	// "dist_worker_<id>", cluster aggregates under "cluster", and
	// dist.worker.* / worker.health.* events on its bus.
	Registry *telemetry.Registry
	// Log, when non-nil, receives structured records for the lease
	// lifecycle, carrying job/lease/worker/trace correlation fields.
	Log *obslog.Logger
}

// Coordinator owns the shard queue and lease table for distributed
// jobs. Plug its Run method into jobs.Config.Distributor and mount its
// Handler on the server mux; Stop it after the manager drains.
type Coordinator struct {
	cfg Config
	log *obslog.Logger

	mu      sync.Mutex
	jobs    map[string]*shardJob    // guarded by mu
	order   []string                // grant fairness: oldest submitted job first; guarded by mu
	leases  map[string]*lease       // guarded by mu
	workers map[string]*workerState // guarded by mu

	seq      atomic.Int64
	stop     chan struct{}
	stopOnce sync.Once
	swept    chan struct{}

	granted, completed, expired, failed *telemetry.Counter
	workersG, activeG, pendingG         *telemetry.Gauge
}

// shardJob is one distributed job's progress: the ranges still to
// lease, the agreed prefix, and the partials folded so far.
type shardJob struct {
	id        string
	job       *jobs.Job
	spec      jobs.Request
	total     int
	pending   []repro.ShardRange
	attempts  map[repro.ShardRange]int
	prefix    *repro.Prefix
	digest    string
	chunks    []mc.Partial
	remaining int
	err       error
	closed    bool
	done      chan struct{}

	// traceID identifies the job's distributed trace; span is the
	// coordinator's "dist" span on the job trace, under which each
	// lease's span (and, below that, the worker's grafted spans) nests.
	traceID string
	span    *telemetry.Span
}

// lease is one granted range.
type lease struct {
	id      string
	jobID   string
	r       repro.ShardRange
	worker  string
	expires time.Time
	// span is the coordinator-side span covering the lease, from grant
	// to result/fail/expiry; the worker's uploaded spans graft under it.
	span *telemetry.Span
}

// workerState is one worker's health record and last federation report.
type workerState struct {
	WorkerInfo
	lastSeen                   time.Time
	active                     int
	completed, failed, expired int64
	samples, sims              int64

	// Federation state from the worker's renew/result heartbeats;
	// health holds the alert kinds its last snapshot reported.
	points     []telemetry.MetricPoint
	simsPerSec float64
	health     []string
}

// rate is the worker's live sampling rate: its last reported rate while
// it holds a lease, 0 when idle (a final upload still carries the
// finished lease's rate).
func (ws *workerState) rate() float64 {
	if ws.active == 0 {
		return 0
	}
	return ws.simsPerSec
}

// NewCoordinator starts a coordinator (and its lease sweeper); call
// Stop to end it.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RangeTarget <= 0 {
		cfg.RangeTarget = 16
	}
	c := &Coordinator{
		cfg:     cfg,
		log:     cfg.Log.With("component", "dist"),
		jobs:    make(map[string]*shardJob),
		leases:  make(map[string]*lease),
		workers: make(map[string]*workerState),
		stop:    make(chan struct{}),
		swept:   make(chan struct{}),
	}
	scope := cfg.Registry.Scope(wire.ScopeDist)
	c.granted = scope.Counter("leases_granted_total")
	c.completed = scope.Counter("leases_completed_total")
	c.expired = scope.Counter("leases_expired_total")
	c.failed = scope.Counter("leases_failed_total")
	c.workersG = scope.Gauge("workers")
	c.activeG = scope.Gauge("active_leases")
	c.pendingG = scope.Gauge("pending_ranges")
	go c.sweep()
	return c
}

// Stop ends the lease sweeper. Outstanding Run calls should be gone
// first (the manager drains before the server shuts the coordinator).
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.swept
}

// traceIDFor derives the job's 16-byte trace id. Content-addressing it
// to the job id keeps it stable across coordinator restarts mid-job.
func traceIDFor(jobID string) string {
	sum := sha256.Sum256([]byte("repro-dist-trace:" + jobID))
	return hex.EncodeToString(sum[:16])
}

// spanIDHex renders a span id in the traceparent's 8-byte hex form.
func spanIDHex(id int64) string {
	return fmt.Sprintf("%016x", uint64(id))
}

// Run executes one Distribute job: shard, wait for workers to lease and
// return every range, fold. It is the jobs.Config.Distributor hook —
// blocking, one call per job, cancelled by the job's own context. The
// folded Result is bit-identical to repro.EstimateContext on one node.
func (c *Coordinator) Run(ctx context.Context, job *jobs.Job) (*repro.Result, error) {
	spec := job.Request()
	opts := spec.Options()
	total, err := repro.ShardPlan(opts)
	if err != nil {
		return nil, err
	}
	ranges := repro.SplitRanges(total, c.cfg.RangeTarget, 0)
	// The coordinator's half of the stitched trace: a "dist" root span
	// on the job's own trace, one child span per lease.
	_, distSpan := telemetry.StartSpan(ctx, job.Telemetry(), "dist")
	distSpan.SetAttr("ranges", len(ranges))
	distSpan.SetAttr("total", total)
	defer distSpan.End()
	sj := &shardJob{
		id: job.ID(), job: job, spec: spec, total: total,
		pending:   ranges,
		attempts:  make(map[repro.ShardRange]int),
		remaining: total,
		done:      make(chan struct{}),
		traceID:   traceIDFor(job.ID()),
		span:      distSpan,
	}
	distSpan.SetAttr("trace_id", sj.traceID)
	c.mu.Lock()
	c.jobs[sj.id] = sj
	c.order = append(c.order, sj.id)
	c.gaugesLocked()
	c.mu.Unlock()
	job.Telemetry().Emit(wire.EvDistJobStart, map[string]any{
		"job": sj.id, "total": total, "ranges": len(ranges), "trace": sj.traceID,
	})
	c.log.Info("distributed job sharded",
		"job", sj.id, "trace", sj.traceID, "total", total, "ranges", len(ranges))
	start := time.Now()
	defer c.drop(sj)

	select {
	case <-sj.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	c.mu.Lock()
	err = sj.err
	prefix, chunks := sj.prefix, sj.chunks
	c.mu.Unlock()
	if err != nil {
		c.log.Warn("distributed job failed", "job", sj.id, "trace", sj.traceID, "error", err.Error())
		return nil, err
	}
	res, foldErr := repro.FoldPartials(opts, *prefix, chunks, time.Since(start).Seconds())
	if foldErr != nil {
		return nil, foldErr
	}
	job.Telemetry().Emit(wire.EvDistJobDone, map[string]any{
		"job": sj.id, "pf": res.Pf, "sims": res.TotalSims,
	})
	c.log.Info("distributed job folded",
		"job", sj.id, "trace", sj.traceID, "pf", res.Pf, "sims", res.TotalSims,
		"elapsed_s", time.Since(start).Seconds())
	return res, nil
}

// drop forgets a finished job: its entry, queue position and any
// leases still pointing at it (their uploads will see 410).
func (c *Coordinator) drop(sj *shardJob) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.jobs, sj.id)
	for i, id := range c.order {
		if id == sj.id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	for id, l := range c.leases {
		if l.jobID == sj.id {
			if ws := c.workers[l.worker]; ws != nil {
				ws.active--
			}
			endLeaseSpan(l, "orphaned")
			delete(c.leases, id)
		}
	}
	if !sj.closed {
		sj.closed = true
		close(sj.done)
	}
	c.gaugesLocked()
}

// endLeaseSpan closes a lease's coordinator-side span with its outcome.
func endLeaseSpan(l *lease, outcome string) {
	if outcome != "" {
		l.span.SetAttr("outcome", outcome)
	}
	l.span.End()
}

// finishLocked fails a job; callers hold c.mu.
func (c *Coordinator) finishLocked(sj *shardJob, err error) {
	if sj.closed {
		return
	}
	sj.err = err
	sj.closed = true
	close(sj.done)
}

// requeueLocked returns a range to its job's queue after a failure or
// expiry, failing the job once the range has burned MaxAttempts tries.
func (c *Coordinator) requeueLocked(sj *shardJob, r repro.ShardRange, reason string) {
	sj.attempts[r]++
	if sj.attempts[r] >= c.cfg.MaxAttempts {
		c.finishLocked(sj, fmt.Errorf("dist: range [%d,%d) failed %d times (last: %s)",
			r.Lo, r.Hi, sj.attempts[r], reason))
		return
	}
	sj.pending = append(sj.pending, r)
}

// touchWorkerLocked updates (or creates) a worker's health record.
func (c *Coordinator) touchWorkerLocked(info WorkerInfo) *workerState {
	ws := c.workers[info.ID]
	if ws == nil {
		ws = &workerState{WorkerInfo: info}
		c.workers[info.ID] = ws
		c.cfg.Registry.Emit(wire.EvDistWorkerJoined, map[string]any{
			"worker": info.ID, "cores": info.Cores,
		})
		c.log.Info("worker joined", "worker", info.ID, "cores", info.Cores)
	}
	if info.Cores > 0 {
		ws.Cores = info.Cores
	}
	ws.lastSeen = time.Now()
	return ws
}

// gaugesLocked refreshes the dist scope gauges and the "cluster"
// aggregates: every federated counter sums across workers into a gauge
// of the same scope_name, plus the fleet's folded live sampling rate.
// Workers are folded in ID order so the float sums are deterministic.
// Every lease change and report calls it, so an idle fleet reads 0
// sims/s. Callers hold c.mu.
func (c *Coordinator) gaugesLocked() {
	c.workersG.Set(float64(len(c.workers)))
	c.activeG.Set(float64(len(c.leases)))
	pending := 0
	for _, sj := range c.jobs {
		pending += len(sj.pending)
	}
	c.pendingG.Set(float64(pending))

	scope := c.cfg.Registry.Scope(wire.ScopeCluster)
	sums := make(map[string]float64)
	var names []string
	rate := 0.0
	for _, ws := range c.sortedWorkersLocked() {
		rate += ws.rate()
		for _, p := range ws.points {
			if p.Kind != "counter" {
				continue
			}
			name := p.Scope + "_" + p.Name
			if _, ok := sums[name]; !ok {
				names = append(names, name)
			}
			sums[name] += p.Value
		}
	}
	scope.Gauge("workers").Set(float64(len(c.workers)))
	scope.Gauge("sims_per_sec").Set(rate)
	for _, name := range names {
		scope.Gauge(name).Set(sums[name])
	}
}

// workerScope returns the per-worker metrics scope.
func (c *Coordinator) workerScope(id string) *telemetry.Scope {
	return c.cfg.Registry.Scope(wire.ScopeDistWorkerPrefix + id)
}

// sortedWorkersLocked returns the worker records ordered by ID, so
// every federation fold and listing is deterministic. Callers hold c.mu.
func (c *Coordinator) sortedWorkersLocked() []*workerState {
	out := make([]*workerState, 0, len(c.workers))
	for _, ws := range c.workers {
		out = append(out, ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ingestReportLocked stores a worker's federation heartbeat (its
// metrics snapshot) and republishes it under the per-worker scope; the
// caller's gaugesLocked refreshes the cluster aggregates. The
// snapshot's health gauges above 0 are the worker's alert kinds; it
// returns the kinds its previous snapshot did not report, for the event
// stream (emit them after releasing c.mu). Callers hold c.mu.
func (c *Coordinator) ingestReportLocked(ws *workerState, points []telemetry.MetricPoint) []string {
	if len(points) == 0 {
		return nil
	}
	ws.points = points
	scope := c.workerScope(ws.ID)
	var health, fresh []string
	for _, p := range points {
		switch {
		case p.Scope == wire.ScopeProgress && p.Name == "sims_per_sec":
			ws.simsPerSec = p.Value
		case p.Scope == wire.ScopeHealth && p.Kind == "gauge" && p.Value > 0:
			health = append(health, p.Name)
			if !slices.Contains(ws.health, p.Name) {
				fresh = append(fresh, p.Name)
			}
		}
		name := p.Scope + "_" + p.Name
		switch p.Kind {
		case "counter", "gauge":
			scope.Gauge(name).Set(p.Value)
		case "histogram":
			scope.Gauge(name + "_count").Set(float64(p.Count))
			if p.Count > 0 {
				scope.Gauge(name + "_p50").Set(p.P50)
				scope.Gauge(name + "_p99").Set(p.P99)
			}
		}
	}
	ws.health = health
	return fresh
}

// emitWorkerAlerts forwards the alert kinds a worker newly reported to
// the registry's event stream (the global SSE firehose) and the log.
func (c *Coordinator) emitWorkerAlerts(workerID string, fresh []string) {
	for _, kind := range fresh {
		c.cfg.Registry.Emit(wire.EvWorkerHealthPrefix+kind, map[string]any{
			"worker": workerID, "kind": kind,
		})
		c.log.Warn("worker health alert", "worker", workerID, "kind", kind)
	}
}

// sweep expires unrenewed leases, requeueing their ranges.
func (c *Coordinator) sweep() {
	defer close(c.swept)
	period := max(c.cfg.LeaseTTL/4, 25*time.Millisecond)
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-ticker.C:
			c.sweepOnce(now)
		}
	}
}

func (c *Coordinator) sweepOnce(now time.Time) {
	type expiry struct {
		jobReg *telemetry.Registry
		fields map[string]any
	}
	var fired []expiry
	c.mu.Lock()
	for id, l := range c.leases {
		if !l.expires.Before(now) {
			continue
		}
		delete(c.leases, id)
		endLeaseSpan(l, "expired")
		c.expired.Inc()
		if ws := c.workers[l.worker]; ws != nil {
			ws.active--
			ws.expired++
			c.workerScope(l.worker).Counter("leases_expired_total").Inc()
		}
		sj := c.jobs[l.jobID]
		if sj == nil {
			continue
		}
		c.requeueLocked(sj, l.r, "lease expired on worker "+l.worker)
		fired = append(fired, expiry{sj.job.Telemetry(), map[string]any{
			"job": l.jobID, "lease": id, "worker": l.worker,
			"lo": l.r.Lo, "hi": l.r.Hi,
		}})
		c.log.Warn("lease expired", "job", l.jobID, "lease", id, "worker", l.worker,
			"lo", l.r.Lo, "hi", l.r.Hi)
	}
	c.gaugesLocked()
	c.mu.Unlock()
	for _, e := range fired {
		e.jobReg.Emit(wire.EvDistLeaseExpired, e.fields)
	}
}

// Handler serves the worker protocol and the fleet summary; mount it at
// /v1/dist/ and /v1/cluster on the server mux.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/dist/poll", c.handlePoll)
	mux.HandleFunc("POST /v1/dist/leases/{id}/renew", c.handleRenew)
	mux.HandleFunc("POST /v1/dist/leases/{id}/result", c.handleResult)
	mux.HandleFunc("POST /v1/dist/leases/{id}/fail", c.handleFail)
	mux.HandleFunc("GET /v1/cluster", c.handleCluster)
	return mux
}

func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req PollRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Worker.ID == "" {
		jobs.WriteProblem(w, problem(http.StatusBadRequest, wire.ProblemInvalidRequest, "dist: poll needs a worker id"))
		return
	}
	var out *Lease
	var jobReg *telemetry.Registry
	c.mu.Lock()
	ws := c.touchWorkerLocked(req.Worker)
	for _, id := range c.order {
		sj := c.jobs[id]
		if sj == nil || sj.closed || len(sj.pending) == 0 {
			continue
		}
		rg := sj.pending[0]
		sj.pending = sj.pending[1:]
		l := &lease{
			id:    fmt.Sprintf("l%06d", c.seq.Add(1)),
			jobID: id, r: rg, worker: ws.ID,
			expires: time.Now().Add(c.cfg.LeaseTTL),
		}
		// The lease's coordinator-side span: grant to completion. Worker
		// spans graft under it at result upload.
		l.span = sj.span.Child("lease")
		l.span.SetAttr("lease", l.id)
		l.span.SetAttr("worker", ws.ID)
		l.span.SetAttr("lo", rg.Lo)
		l.span.SetAttr("hi", rg.Hi)
		c.leases[l.id] = l
		ws.active++
		c.granted.Inc()
		out = &Lease{
			ID: l.id, Job: id, Spec: sj.spec, Range: rg, Total: sj.total,
			TTLSeconds: c.cfg.LeaseTTL.Seconds(),
			NeedPrefix: sj.prefix == nil,
			Trace: TraceContext{
				TraceID:      sj.traceID,
				ParentSpanID: spanIDHex(l.span.ID()),
				Job:          id,
				Lease:        l.id,
			},
		}
		jobReg = sj.job.Telemetry()
		break
	}
	c.gaugesLocked()
	c.mu.Unlock()
	if out == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	jobReg.Emit(wire.EvDistLeaseGranted, map[string]any{
		"job": out.Job, "lease": out.ID, "worker": req.Worker.ID,
		"lo": out.Range.Lo, "hi": out.Range.Hi,
	})
	c.log.Debug("lease granted", "job", out.Job, "lease", out.ID, "worker", req.Worker.ID,
		"trace", out.Trace.TraceID, "lo", out.Range.Lo, "hi", out.Range.Hi)
	jobs.WriteJSON(w, http.StatusOK, out)
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// The renew body is the federation heartbeat; tolerate the empty
	// body older workers send.
	var req RenewRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		jobs.WriteProblem(w, problem(http.StatusBadRequest, wire.ProblemInvalidRequest, "dist: bad renew body: "+err.Error()))
		return
	}
	var fresh []string
	var workerID string
	c.mu.Lock()
	l := c.leases[id]
	if l != nil {
		l.expires = time.Now().Add(c.cfg.LeaseTTL)
		if ws := c.workers[l.worker]; ws != nil {
			ws.lastSeen = time.Now()
			fresh = c.ingestReportLocked(ws, req.Metrics)
			workerID = ws.ID
		}
		c.gaugesLocked()
	}
	c.mu.Unlock()
	if l == nil {
		jobs.WriteProblem(w, leaseLost(id))
		return
	}
	c.emitWorkerAlerts(workerID, fresh)
	jobs.WriteJSON(w, http.StatusOK, RenewResponse{TTLSeconds: c.cfg.LeaseTTL.Seconds()})
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var up ResultUpload
	if err := json.NewDecoder(r.Body).Decode(&up); err != nil {
		jobs.WriteProblem(w, problem(http.StatusBadRequest, wire.ProblemInvalidRequest, "dist: bad result upload: "+err.Error()))
		return
	}
	c.mu.Lock()
	l := c.leases[id]
	if l == nil {
		c.mu.Unlock()
		jobs.WriteProblem(w, leaseLost(id))
		return
	}
	delete(c.leases, id)
	ws := c.workers[l.worker]
	sj := c.jobs[l.jobID]
	if sj == nil || sj.closed {
		if ws != nil {
			ws.active--
		}
		endLeaseSpan(l, "orphaned")
		c.gaugesLocked()
		c.mu.Unlock()
		jobs.WriteProblem(w, problem(http.StatusGone, wire.ProblemLeaseLost, "dist: job "+l.jobID+" is no longer running"))
		return
	}
	if sj.digest == "" {
		// First result fixes the job's prefix; the upload must carry it,
		// and the digest must be the prefix's own.
		switch {
		case up.Prefix == nil:
			c.rejectLocked(w, sj, l, ws, problem(http.StatusBadRequest, wire.ProblemInvalidRequest, "dist: first result must include the prefix"))
			return
		case up.Prefix.Digest() != up.PrefixDigest:
			c.rejectLocked(w, sj, l, ws, problem(http.StatusBadRequest, wire.ProblemInvalidRequest, "dist: uploaded prefix does not match its claimed digest"))
			return
		}
		sj.prefix = up.Prefix
		sj.digest = up.PrefixDigest
	} else if up.PrefixDigest != sj.digest {
		// A worker that replayed a different first stage (version skew,
		// nondeterministic metric) must not contribute partials.
		c.rejectLocked(w, sj, l, ws, problem(http.StatusConflict, wire.ProblemPrefixMismatch,
			fmt.Sprintf("dist: worker %s prefix digest %.12s… differs from job's %.12s…", l.worker, up.PrefixDigest, sj.digest)))
		return
	}
	if sj.prefix.Final == nil {
		covered := 0
		for _, ch := range up.Chunks {
			if ch.Start < l.r.Lo || ch.Start+ch.Count > l.r.Hi {
				c.rejectLocked(w, sj, l, ws, problem(http.StatusBadRequest, wire.ProblemInvalidRequest,
					fmt.Sprintf("dist: chunk [%d,%d) outside leased [%d,%d)", ch.Start, ch.Start+ch.Count, l.r.Lo, l.r.Hi)))
				return
			}
			covered += ch.Count
		}
		if covered != l.r.Count() {
			c.rejectLocked(w, sj, l, ws, problem(http.StatusBadRequest, wire.ProblemInvalidRequest,
				fmt.Sprintf("dist: upload covers %d of %d leased samples", covered, l.r.Count())))
			return
		}
	}
	var sims int64
	for _, ch := range up.Chunks {
		sims += ch.Sims
	}
	var fresh []string
	if ws != nil {
		ws.active--
		ws.completed++
		ws.samples += int64(l.r.Count())
		ws.sims += sims
		s := c.workerScope(l.worker)
		s.Counter("leases_completed_total").Inc()
		s.Counter("samples_total").Add(int64(l.r.Count()))
		s.Counter("sims_total").Add(sims)
		fresh = c.ingestReportLocked(ws, up.Metrics)
	}
	sj.chunks = append(sj.chunks, up.Chunks...)
	sj.remaining -= l.r.Count()
	c.completed.Inc()
	// The last result marks the job closed here but wakes Run only once
	// the lease's span, grafted spans and result event are in, so the
	// finished job's trace and event stream already hold them.
	finished := sj.remaining == 0
	sj.closed = finished
	jobReg := sj.job.Telemetry()
	c.gaugesLocked()
	c.mu.Unlock()
	l.span.SetAttr("sims", sims)
	endLeaseSpan(l, "completed")
	grafted := c.stitchSpans(jobReg.TraceData(), l, &up)
	c.emitWorkerAlerts(l.worker, fresh)
	jobReg.Emit(wire.EvDistLeaseResult, map[string]any{
		"job": l.jobID, "lease": id, "worker": l.worker,
		"lo": l.r.Lo, "hi": l.r.Hi, "sims": sims, "complete": finished,
	})
	if finished {
		close(sj.done)
	}
	c.log.Debug("lease result accepted", "job", l.jobID, "lease", id, "worker", l.worker,
		"sims", sims, "spans", grafted, "complete", finished)
	jobs.WriteJSON(w, http.StatusOK, map[string]bool{"accepted": true})
}

// stitchSpans grafts a worker's uploaded spans into the job's trace
// under the finished lease span. The worker times its spans from when it
// started on the lease, so each is placed from the start of the lease
// span; no wall clocks are compared. Graft then clamps every span into
// the lease span's own window, which absorbs the grant's one-way delay
// and keeps the stitched trace monotonic. Returns the grafted count.
func (c *Coordinator) stitchSpans(trace *telemetry.Trace, l *lease, up *ResultUpload) int {
	if trace == nil || len(up.Spans) == 0 {
		return 0
	}
	shift := l.span.StartUS()
	shifted := make([]telemetry.SpanSnapshot, 0, len(up.Spans))
	for _, s := range up.Spans {
		attrs := make(map[string]any, len(s.Attrs)+2)
		for k, v := range s.Attrs {
			attrs[k] = v
		}
		attrs["worker"] = l.worker
		attrs["lease"] = l.id
		s.Attrs = attrs
		s.StartUS += shift
		shifted = append(shifted, s)
	}
	return trace.Graft(l.span, shifted, l.span.StartUS(), l.span.EndUS())
}

// rejectLocked refuses a lease's upload: the range goes back to the
// queue (attempt counted) and the caller's problem is written. Callers
// hold c.mu, which is released here.
func (c *Coordinator) rejectLocked(w http.ResponseWriter, sj *shardJob, l *lease, ws *workerState, p *jobs.Problem) {
	if ws != nil {
		ws.active--
		ws.failed++
		c.workerScope(l.worker).Counter("leases_failed_total").Inc()
	}
	c.failed.Inc()
	c.requeueLocked(sj, l.r, p.Detail)
	c.gaugesLocked()
	c.mu.Unlock()
	endLeaseSpan(l, "rejected")
	c.log.Warn("lease upload rejected", "job", l.jobID, "lease", l.id, "worker", l.worker,
		"status", p.Status, "detail", p.Detail)
	jobs.WriteProblem(w, p)
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var up FailUpload
	if err := json.NewDecoder(r.Body).Decode(&up); err != nil {
		jobs.WriteProblem(w, problem(http.StatusBadRequest, wire.ProblemInvalidRequest, "dist: bad fail upload: "+err.Error()))
		return
	}
	c.mu.Lock()
	l := c.leases[id]
	if l == nil {
		c.mu.Unlock()
		jobs.WriteProblem(w, leaseLost(id))
		return
	}
	delete(c.leases, id)
	endLeaseSpan(l, "failed")
	sj := c.jobs[l.jobID]
	ws := c.workers[l.worker]
	if ws != nil {
		ws.active--
		ws.failed++
		c.workerScope(l.worker).Counter("leases_failed_total").Inc()
	}
	if sj != nil && !sj.closed {
		c.failed.Inc()
		c.requeueLocked(sj, l.r, "worker "+l.worker+" reported: "+up.Error)
	}
	c.gaugesLocked()
	c.mu.Unlock()
	c.log.Warn("lease failed", "job", l.jobID, "lease", id, "worker", l.worker, "error", up.Error)
	jobs.WriteJSON(w, http.StatusOK, map[string]bool{"accepted": true})
}

// statusLocked renders one worker's wire status; callers hold c.mu.
func statusLocked(ws *workerState) WorkerStatus {
	return WorkerStatus{
		ID: ws.ID, Cores: ws.Cores,
		LastSeen:  ws.lastSeen.UTC().Format(time.RFC3339Nano),
		Active:    ws.active,
		Completed: ws.completed, Failed: ws.failed, Expired: ws.expired,
		Samples: ws.samples, Sims: ws.sims,
		SimsPerSec: ws.rate(),
		Health:     ws.health,
	}
}

// Cluster returns the coordinator's current fleet summary — what
// GET /v1/cluster serves and the -watch-cluster dashboard renders.
func (c *Coordinator) Cluster() ClusterSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	sum := ClusterSummary{
		Workers:         make([]WorkerStatus, 0, len(c.workers)),
		ActiveLeases:    len(c.leases),
		DistJobs:        len(c.jobs),
		LeasesGranted:   c.granted.Value(),
		LeasesCompleted: c.completed.Value(),
		LeasesExpired:   c.expired.Value(),
		LeasesFailed:    c.failed.Value(),
		GeneratedUnixUS: time.Now().UnixMicro(),
	}
	for _, sj := range c.jobs {
		sum.PendingRanges += len(sj.pending)
	}
	for _, ws := range c.sortedWorkersLocked() {
		sum.Workers = append(sum.Workers, statusLocked(ws))
		sum.SimsPerSec += ws.rate()
		sum.Samples += ws.samples
		sum.Sims += ws.sims
	}
	return sum
}

func (c *Coordinator) handleCluster(w http.ResponseWriter, r *http.Request) {
	jobs.WriteJSON(w, http.StatusOK, c.Cluster())
}

// problem builds the RFC 9457 document for a refused protocol request.
func problem(status int, typ, detail string) *jobs.Problem {
	return &jobs.Problem{Type: typ, Title: http.StatusText(status), Status: status, Detail: detail}
}

// leaseLost is the 410 a worker gets for a lease it no longer holds.
func leaseLost(id string) *jobs.Problem {
	return problem(http.StatusGone, wire.ProblemLeaseLost, "dist: lease "+id+" is no longer held")
}
