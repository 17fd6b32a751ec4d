// Package jobs is the estimation-job subsystem behind cmd/sramserverd: a
// bounded queue of failure-rate estimation runs, a fixed pool of
// executors, and per-job cancellation built on repro.EstimateContext.
//
// Every job runs under its own context.Context derived from the
// manager's base context, so a job dies for exactly three reasons: its
// own DELETE/cancel, its per-job deadline, or a manager drain. While a
// job runs, its live progress (simulations consumed, running Pf and 99%
// relative error) is read from the job's private telemetry registry and
// its simulation counter — the estimators publish between evaluation
// chunks, so progress is a snapshot at chunk granularity, never a lock
// on the hot path.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/mc"
	"repro/internal/obslog"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Queue and lifecycle errors. HTTP handlers map these to status codes;
// test with errors.Is.
var (
	// ErrQueueFull is reported by Submit when the bounded queue is at
	// capacity (HTTP 429).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrDraining is reported by Submit after Drain began (HTTP 503).
	ErrDraining = errors.New("jobs: manager draining")
	// ErrNotFound is reported by Get and Cancel for unknown job IDs.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrIdempotencyConflict is reported by SubmitIdempotent when a key
	// is reused with a different request body (HTTP 409).
	ErrIdempotencyConflict = errors.New("jobs: idempotency key reused with a different request")
	// ErrDistributionDisabled is reported by Submit for a distribute
	// request on a manager with no Distributor configured (HTTP 501).
	ErrDistributionDisabled = errors.New("jobs: distributed execution is not enabled")
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle states. A job moves queued → running → one of the three
// terminal states; a cancel while still queued goes straight to
// StateCancelled without running.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Request is one estimation job as submitted over the API. The zero
// value of every tuning field selects the library default, exactly as
// the corresponding repro.Options field does.
type Request struct {
	// Workload names a registered workload (repro.Workloads).
	Workload string `json:"workload"`
	// Method names the estimator (repro.AllMethods); empty selects the
	// library default (g-s).
	Method string `json:"method,omitempty"`
	// K, N, Target, Seed, TraceEvery, Workers, Mixture and Quadratic
	// mirror the repro.Options fields of the same names.
	K          int     `json:"k,omitempty"`
	N          int     `json:"n,omitempty"`
	Target     float64 `json:"target,omitempty"`
	Seed       int64   `json:"seed"`
	TraceEvery int     `json:"trace_every,omitempty"`
	Workers    int     `json:"workers,omitempty"`
	Mixture    int     `json:"mixture,omitempty"`
	Quadratic  bool    `json:"quadratic,omitempty"`
	// TimeoutSeconds, when positive, caps the job's wall-clock run time
	// (overriding the server-wide default); the job fails with
	// context.DeadlineExceeded when it expires.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// Distribute runs the job sharded across registered worker nodes
	// instead of in-process. Requires a manager with a Distributor (the
	// dist coordinator) and options repro.ShardPlan accepts; the result
	// is bit-identical to an in-process run either way.
	Distribute bool `json:"distribute,omitempty"`
}

// Options converts the request's tuning fields to repro.Options.
func (r Request) Options() repro.Options {
	return repro.Options{
		Method: repro.Method(r.Method), K: r.K, N: r.N, Target: r.Target,
		Seed: r.Seed, TraceEvery: r.TraceEvery, Workers: r.Workers,
		Mixture: r.Mixture, Quadratic: r.Quadratic,
	}
}

// Progress is a live snapshot of a running job, read from the
// estimator's chunk-boundary telemetry gauges: the second-stage running
// estimate plus the throughput numbers ("progress" scope) the stage
// publishes alongside it. SimsPerSec and ETASeconds come from the same
// estimator that feeds the SSE progress events and the CLI -stats
// footer, so every surface reports one consistent rate.
type Progress struct {
	// Stage2N is the number of second-stage samples consumed so far.
	Stage2N int `json:"stage2_n"`
	// Pf and RelErr99 are the running estimate and its 99% relative
	// error; RelErr99 is null until the estimate is non-zero.
	Pf       float64  `json:"pf"`
	RelErr99 *float64 `json:"rel_err99"`
	// SimsPerSec is the measured sampling throughput of the live stage;
	// ETASeconds is the finite remaining-work estimate derived from it.
	SimsPerSec float64 `json:"sims_per_sec,omitempty"`
	ETASeconds float64 `json:"eta_seconds,omitempty"`
}

// Result is the wire form of repro.Result: scalar fields only — traces,
// Gibbs samples and distortion vectors stay server-side (the per-job
// metrics endpoint exposes the run's telemetry instead).
type Result struct {
	Pf         float64  `json:"pf"`
	StdErr     float64  `json:"std_err"`
	RelErr99   *float64 `json:"rel_err99"`
	N          int      `json:"n"`
	Failures   int      `json:"failures"`
	WeightESS  float64  `json:"weight_ess"`
	Stage1Sims int64    `json:"stage1_sims"`
	Stage2Sims int64    `json:"stage2_sims"`
	TotalSims  int64    `json:"total_sims"`
}

// Snapshot is a point-in-time view of a job, safe to serialize.
type Snapshot struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Workload string `json:"workload"`
	Method   string `json:"method"`
	Seed     int64  `json:"seed"`
	Created  string `json:"created"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
	// Sims is the live count of transistor-level simulations consumed,
	// including first-stage and Gibbs-chain probes.
	Sims int64 `json:"sims"`
	// Progress is present while the job runs and a stage has started
	// publishing.
	Progress *Progress `json:"progress,omitempty"`
	// Health lists the watchdog alerts fired so far (absent while
	// healthy or when the event bus is disabled).
	Health []telemetry.Alert `json:"health,omitempty"`
	// FlightDump is the path of the flight-recorder dump, once one was
	// written for this job.
	FlightDump string `json:"flight_dump,omitempty"`
	// Result is present once State is done. Elapsed is wall-clock
	// seconds from start to finish (or to now while running).
	Result  *Result `json:"result,omitempty"`
	Elapsed float64 `json:"elapsed_seconds,omitempty"`
	// Cached marks a job served from the result cache: it went terminal
	// at submission with zero new simulations.
	Cached bool `json:"cached,omitempty"`
	// Distributed marks a job that ran sharded across worker nodes.
	Distributed bool `json:"distributed,omitempty"`
	// Error is present once State is failed or cancelled.
	Error string `json:"error,omitempty"`
}

// Job is one tracked estimation run.
type Job struct {
	id  string
	req Request

	// counter wraps the workload metric so live Sims counts every
	// simulation — including Gibbs-chain probes that bypass the
	// evaluation pool. The estimator layers its own counter on top;
	// both are lock-free pass-throughs.
	counter *mc.Counter
	// reg is the job's private telemetry registry, serving the per-job
	// metrics endpoint and the Progress gauges.
	reg *telemetry.Registry
	// bus is the job's private event bus (nil when the manager runs with
	// events disabled): every event the run emits fans out to SSE
	// subscribers and is retained in the flight-recorder ring, and a
	// tagged copy forwards to the manager's global bus.
	bus *telemetry.Bus
	// watchdog evaluates the job's streamed telemetry mid-run (nil when
	// events are disabled).
	watchdog *telemetry.Watchdog

	// flightOnce guards the automatic flight dump (job failure or first
	// watchdog alert — whichever fires first wins).
	flightOnce sync.Once
	flightDir  string

	cacheKey string // content address of the result, "" with caching off
	cached   bool   // served from the result cache at submission

	mu        sync.Mutex
	flight    string             // path of the written flight dump; guarded by mu
	state     State              // guarded by mu
	cancel    context.CancelFunc // set when the job starts running; guarded by mu
	cancelled bool               // cancel requested (possibly while queued); guarded by mu
	result    *repro.Result      // guarded by mu
	err       error              // guarded by mu
	created   time.Time          // guarded by mu
	started   time.Time          // guarded by mu
	finished  time.Time          // guarded by mu

	done chan struct{} // closed on reaching a terminal state
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Request returns the job's submitted request.
func (j *Job) Request() Request { return j.req }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Telemetry returns the job's private registry (live during the run,
// final afterwards).
func (j *Job) Telemetry() *telemetry.Registry { return j.reg }

// Events returns the job's private event bus, or nil when the manager
// runs with the event plane disabled. Subscribe to it for the job's
// live event stream; its ring retains the run's last events (the SSE
// resume window and the flight recorder).
func (j *Job) Events() *telemetry.Bus { return j.bus }

// dumpFlight writes the job's retained event ring as JSONL to the
// manager's flight directory, at most once per job (the first trigger —
// watchdog alert or failure — wins). No-op without a bus or a flight
// directory.
func (j *Job) dumpFlight(reason string) {
	if j.bus == nil || j.flightDir == "" {
		return
	}
	j.flightOnce.Do(func() {
		path := filepath.Join(j.flightDir, fmt.Sprintf("%s-%s.jsonl", j.id, reason))
		if j.bus.DumpFile(path) != nil {
			return
		}
		j.mu.Lock()
		j.flight = path
		j.mu.Unlock()
	})
}

// Report returns the finished job's statistical run-report, or nil while
// the job has not completed successfully.
func (j *Job) Report() *repro.RunReport {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone || j.result == nil {
		return nil
	}
	return j.result.Report
}

// Result returns the finished job's full library estimate, or nil
// while the job has not completed successfully. The returned value is
// shared and read-only.
func (j *Job) Result() *repro.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil
	}
	return j.result
}

// Err returns the job's terminal error (nil while non-terminal or done).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Snapshot captures the job's current state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID: j.id, State: j.state,
		Workload: j.req.Workload, Method: j.req.Method, Seed: j.req.Seed,
		Created: j.created.UTC().Format(time.RFC3339Nano),
		Sims:    j.counter.Count(),
	}
	if s.Method == "" {
		s.Method = repro.GS.String()
	}
	if !j.started.IsZero() {
		s.Started = j.started.UTC().Format(time.RFC3339Nano)
		end := time.Now()
		if !j.finished.IsZero() {
			end = j.finished
			s.Finished = j.finished.UTC().Format(time.RFC3339Nano)
		}
		s.Elapsed = end.Sub(j.started).Seconds()
	}
	if j.state == StateRunning {
		mcScope := j.reg.Scope(wire.ScopeMC)
		prog := j.reg.Scope(wire.ScopeProgress)
		if n := int(mcScope.Gauge("stage2_n").Value()); n > 0 {
			s.Progress = &Progress{
				Stage2N:    n,
				Pf:         mcScope.Gauge("stage2_pf").Value(),
				RelErr99:   finitePtr(mcScope.Gauge("stage2_relerr99").Value()),
				SimsPerSec: prog.Gauge("sims_per_sec").Value(),
				ETASeconds: prog.Gauge("eta_seconds").Value(),
			}
		} else if prog.Gauge("n").Value() > 0 {
			// First stage live: no running estimate yet, but the
			// throughput estimator already reports rate and ETA.
			s.Progress = &Progress{
				SimsPerSec: prog.Gauge("sims_per_sec").Value(),
				ETASeconds: prog.Gauge("eta_seconds").Value(),
			}
		}
	}
	s.Health = j.watchdog.Alerts()
	s.FlightDump = j.flight
	s.Cached = j.cached
	s.Distributed = j.req.Distribute
	if j.state == StateDone && j.result != nil {
		r := j.result
		s.Result = &Result{
			Pf: r.Pf, StdErr: r.StdErr, RelErr99: finitePtr(r.RelErr99),
			N: r.N, Failures: r.Failures, WeightESS: finiteOrZero(r.WeightESS),
			Stage1Sims: r.Stage1Sims, Stage2Sims: r.Stage2Sims, TotalSims: r.TotalSims,
		}
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	// A terminal job whose simulations ran outside its own counter —
	// distributed across workers, replayed from the cache, or a
	// partially-cancelled run — still reports the run's own cost.
	if j.state.Terminal() && j.result != nil && j.result.TotalSims > s.Sims {
		s.Sims = j.result.TotalSims
	}
	return s
}

// Config configures a Manager. The zero value is usable: a queue of 64,
// one executor, no default deadline, the built-in workload registry and
// a fresh global telemetry registry.
type Config struct {
	// QueueSize bounds the number of jobs waiting to run (default 64).
	QueueSize int
	// Executors is the number of jobs that run concurrently (default 1 —
	// a single estimation already fans out across the evaluation pool).
	Executors int
	// JobTimeout, when positive, is the default per-job deadline;
	// Request.TimeoutSeconds overrides it per job.
	JobTimeout time.Duration
	// Resolve maps a workload name to a fresh Metric; nil selects
	// repro.WorkloadByName. Tests inject synthetic workloads here.
	Resolve func(workload string) (repro.Metric, error)
	// Registry, when non-nil, receives the manager's own metrics under
	// scope "jobs" (submission counters, queue depth, running gauge),
	// plus per-job gauges under scope "job_<id>", refreshed from each
	// job on every /metrics scrape. A bus already installed on it (the
	// event log of sramserverd -telemetry) becomes the server-global
	// event bus, which turns the live event plane on whatever EventRing
	// says: the log receives every job's events, tagged with the job.
	Registry *telemetry.Registry
	// EventRing sizes each job's event ring (256 when zero), and with no
	// bus on Registry a positive value turns the live event plane on:
	// each job gets a private event bus retaining the last EventRing
	// events (the SSE resume window and the flight recorder), forwarding
	// tagged copies to a server-global bus, and a health watchdog
	// evaluates the stream mid-run. Zero with no Registry bus disables
	// all of it — no buses, no watchdog, no SSE payloads.
	EventRing int
	// FlightDir, when non-empty, is where flight-recorder dumps are
	// written (on job failure, first watchdog alert, or SIGQUIT via
	// DumpFlight). The directory must exist.
	FlightDir string
	// Retention, when positive, garbage-collects terminal jobs this long
	// after they finish: the job disappears from the table and its
	// per-job metrics scope is dropped from Registry.
	Retention time.Duration
	// Heartbeat is the SSE comment-heartbeat period (default 15s).
	Heartbeat time.Duration
	// Distributor, when non-nil, executes Distribute jobs: it shards the
	// job across registered worker nodes and returns the folded result
	// (the dist coordinator's Run method). Distribute submissions are
	// rejected with ErrDistributionDisabled when nil. The jobs package
	// never imports the dist package — the coordinator plugs in here.
	Distributor func(ctx context.Context, job *Job) (*repro.Result, error)
	// CacheSize, when positive, enables the content-addressed result
	// cache: up to CacheSize completed results are retained, keyed by
	// (build version, workload, canonical options, seed), and a matching
	// submission goes terminal immediately with the cached result and
	// zero new simulations.
	CacheSize int
	// Log, when non-nil, receives structured records for the job
	// lifecycle (submit, run, terminal state, drain), each carrying the
	// "job" correlation field.
	Log *obslog.Logger
}

// minSweep bounds how often the retention sweeper wakes up.
const minSweep = 100 * time.Millisecond

// Manager owns the queue, the executor pool and the job table.
type Manager struct {
	cfg Config

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job // guarded by mu
	order    []string        // submission order, for List; guarded by mu
	queue    chan *Job
	draining bool // guarded by mu

	seq atomic.Int64
	wg  sync.WaitGroup

	// cache is the content-addressed result cache (nil when disabled);
	// idem maps Idempotency-Key → submission, serialized by idemMu so a
	// concurrent duplicate can never double-submit.
	cache  *resultCache
	idemMu sync.Mutex
	idem   map[string]idemEntry // guarded by idemMu

	// bus is the server-global event bus (nil with the event plane off):
	// every job's events arrive here tagged with the job ID, and the
	// global SSE stream serves it. The manager never closes it — events
	// the registry emits after a drain must still reach its log.
	bus *telemetry.Bus

	// drained closes when Drain completes: it stops the sweeper and
	// ends the global SSE streams.
	drained  chan struct{}
	gcDone   chan struct{}
	stopOnce sync.Once

	log *obslog.Logger

	// "jobs" scope instruments on cfg.Registry (nil-safe).
	submitted, completed, failed, cancelled, rejected *telemetry.Counter
	cacheHits                                         *telemetry.Counter
	queueDepth, running                               *telemetry.Gauge
}

// idemEntry records one idempotency-keyed submission: the job it
// created and a fingerprint of the request body, so a key reused with
// different contents is a conflict rather than a silent replay.
type idemEntry struct {
	jobID       string
	fingerprint string
}

// NewManager starts a manager with cfg.Executors executor goroutines.
// Call Drain to stop it.
func NewManager(cfg Config) *Manager {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	if cfg.Executors <= 0 {
		cfg.Executors = 1
	}
	if cfg.Resolve == nil {
		cfg.Resolve = repro.WorkloadByName
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 15 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		idem:       make(map[string]idemEntry),
		cache:      newResultCache(cfg.CacheSize),
		queue:      make(chan *Job, cfg.QueueSize),
		drained:    make(chan struct{}),
		gcDone:     make(chan struct{}),
		log:        cfg.Log.With("component", "jobs"),
	}
	m.bus = cfg.Registry.Bus()
	if m.bus == nil && cfg.EventRing > 0 {
		m.bus = telemetry.NewBus(cfg.EventRing)
		cfg.Registry.SetBus(m.bus)
	}
	if cfg.Retention > 0 {
		go m.sweep()
	} else {
		close(m.gcDone)
	}
	scope := cfg.Registry.Scope(wire.ScopeJobs)
	m.submitted = scope.Counter("submitted_total")
	m.completed = scope.Counter("completed_total")
	m.failed = scope.Counter("failed_total")
	m.cancelled = scope.Counter("cancelled_total")
	m.rejected = scope.Counter("rejected_total")
	m.cacheHits = scope.Counter("cache_hits_total")
	m.queueDepth = scope.Gauge("queue_depth")
	m.running = scope.Gauge("running")
	for i := 0; i < cfg.Executors; i++ {
		m.wg.Add(1)
		go m.executor()
	}
	return m
}

// Submit validates the request, enqueues a new job and returns it. The
// queue is bounded: a full queue rejects immediately with ErrQueueFull
// rather than blocking the caller.
func (m *Manager) Submit(req Request) (*Job, error) {
	metric, err := m.cfg.Resolve(req.Workload)
	if err != nil {
		m.rejected.Inc()
		// Injected resolvers may return bare errors; make sure every
		// resolve failure classifies as a client problem (400), not 500.
		if !errors.Is(err, repro.ErrUnknownWorkload) {
			err = fmt.Errorf("%w: %v", repro.ErrUnknownWorkload, err)
		}
		return nil, err
	}
	if req.Method != "" {
		if _, err := repro.ParseMethod(req.Method); err != nil {
			m.rejected.Inc()
			return nil, err
		}
	}
	opts := req.Options()
	if err := opts.Validate(); err != nil {
		m.rejected.Inc()
		return nil, err
	}
	if req.TimeoutSeconds < 0 {
		m.rejected.Inc()
		return nil, fmt.Errorf("%w: timeout_seconds must be ≥ 0, got %v", repro.ErrInvalidOptions, req.TimeoutSeconds)
	}
	if req.Distribute {
		if m.cfg.Distributor == nil {
			m.rejected.Inc()
			return nil, ErrDistributionDisabled
		}
		if _, err := repro.ShardPlan(opts); err != nil {
			m.rejected.Inc()
			return nil, err
		}
	}

	// The job's registry reaches the metric's solver before the counter
	// wraps it: mc.Counter does not pass SetTelemetry through, so
	// EstimateContext could not thread it later.
	reg := telemetry.New()
	if tm, ok := metric.(interface{ SetTelemetry(*telemetry.Registry) }); ok {
		tm.SetTelemetry(reg)
	}
	job := &Job{
		id:        fmt.Sprintf("j%06d", m.seq.Add(1)),
		req:       req,
		counter:   mc.NewCounter(metric),
		reg:       reg,
		flightDir: m.cfg.FlightDir,
		state:     StateQueued,
		created:   time.Now(),
		done:      make(chan struct{}),
	}
	if m.cache != nil {
		job.cacheKey = cacheKey(req)
	}
	// Every job records a span trace on its private registry: the
	// estimate pipeline nests its stage spans under it, and the
	// /v1/jobs/{id}/trace endpoint serves it live or finished.
	reg.SetTrace(telemetry.NewTrace())
	// With the event plane on, the run's events (run.start, progress, …)
	// go to the job's private bus (SSE per-job stream + flight ring) and,
	// with a {"job": id} tag merged in, to the server-global bus and its
	// event log, whose sequence numbers order events across jobs.
	if m.bus != nil {
		job.bus = telemetry.NewBus(m.cfg.EventRing).
			WithParent(m.bus, map[string]any{"job": job.id})
		reg.SetBus(job.bus)
	}

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.rejected.Inc()
		return nil, ErrDraining
	}
	// Content-addressed replay: an identical completed run goes terminal
	// at submission — no queue slot, no executor, zero new simulations.
	if res := m.cache.get(job.cacheKey); res != nil {
		now := time.Now()
		job.cached = true
		job.result = res
		job.state = StateDone
		job.started, job.finished = now, now
		m.jobs[job.id] = job
		m.order = append(m.order, job.id)
		m.mu.Unlock()
		m.submitted.Inc()
		m.cacheHits.Inc()
		m.completed.Inc()
		job.reg.Emit(wire.EvJobSubmitted, map[string]any{
			"job": job.id, "workload": req.Workload, "method": req.Method, "seed": req.Seed,
		})
		job.reg.Emit(wire.EvJobDone, map[string]any{
			"job": job.id, "state": string(StateDone), "pf": res.Pf, "sims": res.TotalSims, "cached": true,
		})
		close(job.done)
		return job, nil
	}
	// An executor's run takes job.mu first, so holding it until
	// job.submitted is published keeps that event ahead of the run's.
	job.mu.Lock()
	select {
	case m.queue <- job:
	default:
		job.mu.Unlock()
		m.mu.Unlock()
		m.rejected.Inc()
		return nil, ErrQueueFull
	}
	m.jobs[job.id] = job
	m.order = append(m.order, job.id)
	m.submitted.Inc()
	m.queueDepth.Set(float64(len(m.queue)))
	// Emitting on the job's registry reaches the job bus (so a per-job
	// SSE stream sees its own lifecycle from the first event) and the
	// tagged global bus.
	job.reg.Emit(wire.EvJobSubmitted, map[string]any{
		"job": job.id, "workload": req.Workload, "method": req.Method, "seed": req.Seed,
	})
	job.mu.Unlock()
	m.mu.Unlock()
	m.log.Info("job submitted", "job", job.id, "workload", req.Workload,
		"method", req.Method, "seed", req.Seed, "distribute", req.Distribute)
	return job, nil
}

// SubmitIdempotent is Submit with at-most-once semantics: a repeated
// submission with the same non-empty key returns the original job and
// replay=true (running zero new simulations); the same key with a
// different request body reports ErrIdempotencyConflict. An empty key
// degrades to plain Submit.
func (m *Manager) SubmitIdempotent(req Request, key string) (job *Job, replay bool, err error) {
	if key == "" {
		job, err = m.Submit(req)
		return job, false, err
	}
	fp, err := json.Marshal(req)
	if err != nil {
		return nil, false, err
	}
	// idemMu serializes the lookup with the submission, so two racing
	// requests carrying the same key can never both enqueue.
	m.idemMu.Lock()
	defer m.idemMu.Unlock()
	if e, ok := m.idem[key]; ok {
		if prior, getErr := m.Get(e.jobID); getErr == nil {
			if e.fingerprint != string(fp) {
				return nil, false, fmt.Errorf("%w: %q", ErrIdempotencyConflict, key)
			}
			return prior, true, nil
		}
		// The recorded job was retention-swept; treat the key as fresh.
		delete(m.idem, key)
	}
	job, err = m.Submit(req)
	if err != nil {
		return nil, false, err
	}
	m.idem[key] = idemEntry{jobID: job.ID(), fingerprint: string(fp)}
	return job, false, nil
}

// Get looks up a job by ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return job, nil
}

// List snapshots every job in submission order.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]Snapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot()
	}
	return out
}

// JobList is one page of the job table: the requested window plus the
// paging fields a client needs to walk the rest.
type JobList struct {
	Jobs []Snapshot `json:"jobs"`
	// Total is the number of jobs matching the filter (across all
	// pages); Limit and Offset echo the window that was applied.
	Total  int `json:"total"`
	Limit  int `json:"limit"`
	Offset int `json:"offset"`
	// NextOffset is the offset of the following page, absent on the
	// last one.
	NextOffset *int `json:"next_offset,omitempty"`
}

// ListPage snapshots jobs in submission order, optionally filtered to
// one state, windowed by limit (≤ 0 selects the default of 100) and
// offset.
func (m *Manager) ListPage(state State, limit, offset int) JobList {
	filtered := make([]Snapshot, 0)
	for _, s := range m.List() {
		if state == "" || s.State == state {
			filtered = append(filtered, s)
		}
	}
	if limit <= 0 {
		limit = 100
	}
	offset = max(offset, 0)
	total := len(filtered)
	start := min(offset, total)
	end := min(start+limit, total)
	out := JobList{Jobs: filtered[start:end], Total: total, Limit: limit, Offset: offset}
	if end < total {
		next := end
		out.NextOffset = &next
	}
	return out
}

// Cancel requests cancellation of a job. A queued job goes terminal
// without ever running; a running job's context is cancelled and the
// estimator returns within one evaluation chunk; a terminal job is left
// untouched (not an error — cancel is idempotent).
func (m *Manager) Cancel(id string) (*Job, error) {
	job, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	job.mu.Lock()
	switch {
	case job.state.Terminal():
		job.mu.Unlock()
		return job, nil
	case job.state == StateQueued:
		job.cancelled = true
		job.mu.Unlock()
		return job, nil
	default: // running
		job.cancelled = true
		cancel := job.cancel
		job.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return job, nil
	}
}

// BeginDrain flips the manager into draining mode without waiting: new
// submissions reject with ErrDraining (503 + problem+json at the API)
// and the queue is closed, while queued and running jobs continue.
// Idempotent. The server calls this before shutting its listener down,
// so submissions that cross the drain boundary see clean rejections
// instead of connection errors; Drain then waits for the in-flight
// work.
func (m *Manager) BeginDrain() {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.queue)
		m.log.Info("drain started", "queued", len(m.queue))
	}
	m.mu.Unlock()
}

// Drain stops the manager gracefully: new submissions are rejected,
// queued and running jobs are given until ctx expires to finish, then
// everything still running is cancelled. Drain returns nil when all
// jobs finished in time, or ctx's error after the forced cancellation
// completes.
func (m *Manager) Drain(ctx context.Context) error {
	m.BeginDrain()

	idle := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(idle)
	}()
	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		m.baseCancel()
		<-idle
		err = ctx.Err()
	}
	// Executors are idle: stop the sweeper and end the global SSE
	// streams. The global bus stays open for the registry's later events.
	m.stopOnce.Do(func() { close(m.drained) })
	<-m.gcDone
	if err != nil {
		m.log.Warn("drain forced cancellation", "error", err.Error())
	} else {
		m.log.Info("drain complete")
	}
	return err
}

// Bus returns the server-global event bus (nil when the event plane is
// disabled): every job's events, tagged with {"job": id}.
func (m *Manager) Bus() *telemetry.Bus { return m.bus }

// Heartbeat returns the configured SSE heartbeat period.
func (m *Manager) Heartbeat() time.Duration { return m.cfg.Heartbeat }

// Remove deletes a terminal job from the table and drops its per-job
// scope from the server-wide registry, so /metrics stops mentioning it.
// Removing a non-terminal job is an error; removing an unknown ID
// reports ErrNotFound.
func (m *Manager) Remove(id string) error {
	m.mu.Lock()
	job, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	job.mu.Lock()
	state := job.state
	job.mu.Unlock()
	if !state.Terminal() {
		m.mu.Unlock()
		return fmt.Errorf("jobs: job %q is %s — cancel it before removing", id, state)
	}
	delete(m.jobs, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
	// Drop the job's metrics from /metrics and free its bus subscribers
	// (any still-attached SSE replay stream ends). Deleting the job under
	// m.mu first keeps refreshJobMetrics from recreating the scope.
	m.cfg.Registry.DropScope("job_" + id)
	job.bus.Close()
	return nil
}

// sweep garbage-collects terminal jobs older than cfg.Retention.
func (m *Manager) sweep() {
	defer close(m.gcDone)
	period := max(m.cfg.Retention/4, minSweep)
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-m.drained:
			return
		case <-ticker.C:
			m.sweepOnce(time.Now())
		}
	}
}

// sweepOnce removes every terminal job that finished before
// now−Retention.
func (m *Manager) sweepOnce(now time.Time) {
	cutoff := now.Add(-m.cfg.Retention)
	m.mu.Lock()
	var expired []string
	for id, job := range m.jobs {
		job.mu.Lock()
		if job.state.Terminal() && !job.finished.IsZero() && job.finished.Before(cutoff) {
			expired = append(expired, id)
		}
		job.mu.Unlock()
	}
	m.mu.Unlock()
	for _, id := range expired {
		m.Remove(id)
	}
}

// refreshJobMetrics sets each tracked job's "job_<id>" gauges on the
// server registry from the job's own registry and Snapshot, just before
// a /metrics scrape. It holds m.mu throughout, and Remove deletes a job
// under m.mu before dropping its scope, so a scrape never recreates a
// removed job's scope.
func (m *Manager) refreshJobMetrics() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, job := range m.jobs {
		snap := job.Snapshot()
		prog := job.reg.Scope(wire.ScopeProgress)
		pf := job.reg.Scope(wire.ScopeMC).Gauge("stage2_pf").Value()
		state := 0.0
		if snap.State.Terminal() {
			state = 1
		}
		if snap.Result != nil {
			pf = snap.Result.Pf
		}
		s := m.cfg.Registry.Scope(wire.ScopeJobPrefix + id)
		s.Gauge("progress_n").Set(prog.Gauge("n").Value())
		s.Gauge("pf").Set(pf)
		s.Gauge("sims_per_sec").Set(prog.Gauge("sims_per_sec").Value())
		s.Gauge("eta_seconds").Set(prog.Gauge("eta_seconds").Value())
		s.Gauge("state").Set(state)
		s.Gauge("sims").Set(float64(snap.Sims))
	}
}

// DumpFlight writes flight-recorder dumps for the global bus and every
// tracked job that has one, returning the written paths. This is the
// SIGQUIT hook: unlike the per-job automatic dump it is not
// once-guarded, so an operator can trigger it repeatedly. No-op without
// a FlightDir or with the event plane disabled.
func (m *Manager) DumpFlight(reason string) []string {
	if m.cfg.FlightDir == "" || m.bus == nil {
		return nil
	}
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	var paths []string
	write := func(name string, bus *telemetry.Bus) {
		path := filepath.Join(m.cfg.FlightDir, name)
		if bus.DumpFile(path) == nil {
			paths = append(paths, path)
		}
	}
	write(fmt.Sprintf("server-%s.jsonl", reason), m.bus)
	for _, job := range jobs {
		if job.bus != nil {
			write(fmt.Sprintf("%s-%s.jsonl", job.id, reason), job.bus)
		}
	}
	return paths
}

// executor pulls jobs off the queue until Drain closes it.
func (m *Manager) executor() {
	defer m.wg.Done()
	for job := range m.queue {
		m.queueDepth.Set(float64(len(m.queue)))
		m.run(job)
	}
}

// run executes one job under its own context.
func (m *Manager) run(job *Job) {
	job.mu.Lock()
	if job.cancelled {
		// Cancelled while queued: terminal without running. The job
		// still gets its terminal event so event streams see it end.
		job.state = StateCancelled
		job.err = context.Canceled
		job.finished = time.Now()
		job.mu.Unlock()
		m.cancelled.Inc()
		job.reg.Emit(wire.EvJobDone, map[string]any{
			"job": job.id, "state": string(StateCancelled), "error": context.Canceled.Error(),
		})
		close(job.done)
		return
	}
	ctx := m.baseCtx
	var timeoutCancel context.CancelFunc
	timeout := m.cfg.JobTimeout
	if job.req.TimeoutSeconds > 0 {
		timeout = time.Duration(job.req.TimeoutSeconds * float64(time.Second))
	}
	if timeout > 0 {
		ctx, timeoutCancel = context.WithTimeout(ctx, timeout)
	}
	ctx, cancel := context.WithCancel(ctx)
	job.cancel = cancel
	job.state = StateRunning
	job.started = time.Now()
	// The watchdog rides the job's private bus (nil bus → nil watchdog,
	// fully inert); its first alert dumps the flight recorder.
	job.watchdog = telemetry.StartWatchdog(job.reg, func(a telemetry.Alert) {
		m.log.Warn("watchdog alert", "job", job.id, "kind", a.Kind, "detail", a.Detail)
		job.dumpFlight("alert-" + a.Kind)
	})
	job.mu.Unlock()
	m.running.Set(m.running.Value() + 1)
	defer m.running.Set(m.running.Value() - 1)
	defer cancel()
	if timeoutCancel != nil {
		defer timeoutCancel()
	}

	var res *repro.Result
	var err error
	if job.req.Distribute {
		// The coordinator shards the job across worker nodes and folds
		// their partials; the fold is bit-identical to the in-process
		// estimate below.
		res, err = m.cfg.Distributor(ctx, job)
	} else {
		opts := job.req.Options()
		opts.Telemetry = job.reg
		res, err = repro.EstimateContext(ctx, job.counter, opts)
	}

	job.watchdog.Stop()
	job.mu.Lock()
	job.result = res
	job.err = err
	job.finished = time.Now()
	switch {
	case err == nil:
		job.state = StateDone
		m.completed.Inc()
		m.cache.put(job.cacheKey, res)
	case errors.Is(err, context.Canceled):
		job.state = StateCancelled
		m.cancelled.Inc()
	default:
		job.state = StateFailed
		m.failed.Inc()
	}
	state := job.state
	job.mu.Unlock()

	fields := map[string]any{"job": job.id, "state": string(state)}
	if res != nil {
		fields["pf"] = res.Pf
		fields["sims"] = res.TotalSims
	}
	if err != nil {
		fields["error"] = err.Error()
	}
	// The terminal event goes out on the job's registry — job bus (every
	// per-job SSE stream ends on it) and tagged global bus —
	// before the flight dump and the done close, so the dump's ring ends
	// on job.done and a waiter that saw done can rely on both.
	job.reg.Emit(wire.EvJobDone, fields)
	switch {
	case err != nil:
		m.log.Warn("job finished", "job", job.id, "state", string(state), "error", err.Error())
	case res != nil:
		m.log.Info("job finished", "job", job.id, "state", string(state),
			"pf", res.Pf, "sims", res.TotalSims)
	}
	if state == StateFailed {
		job.dumpFlight("failed")
	}
	close(job.done)
}

// finitePtr returns &v for finite v and nil otherwise, so JSON encoding
// renders non-finite floats (RelErr99 is +Inf until the first failure)
// as null instead of failing.
func finitePtr(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

func finiteOrZero(v float64) float64 {
	if p := finitePtr(v); p != nil {
		return *p
	}
	return 0
}
