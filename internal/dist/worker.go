package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"repro"
	"repro/internal/obslog"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// ID names this worker to the coordinator (required).
	ID string
	// PollInterval is the idle delay between polls (default 500ms).
	PollInterval time.Duration
	// Resolve maps workload names to metrics; nil selects
	// repro.WorkloadByName. Tests inject synthetic workloads.
	Resolve func(workload string) (repro.Metric, error)
	// Registry, when non-nil, receives worker metrics under scope
	// "worker" and hosts the per-lease trace whose spans upload with
	// each result. Its snapshot rides every renewal and result upload;
	// the watchdog's health gauges in it are the worker's alerts.
	Registry *telemetry.Registry
	// Client, when non-nil, overrides the HTTP client.
	Client *http.Client
	// Log, when non-nil, receives structured records for the worker's
	// lease lifecycle with job/lease/trace correlation fields.
	Log *obslog.Logger
}

// RunWorker polls the coordinator for leases and processes them until
// ctx ends, returning ctx's error. Each lease replays the job's
// deterministic prefix, evaluates the leased range, and uploads the
// partial statistics; a renewal heartbeat keeps the lease alive for as
// long as the evaluation runs, and a lost lease (coordinator handed the
// range to someone else) aborts the evaluation mid-chunk.
//
// Every lease is evaluated under the trace context it granted: the
// worker records its own span tree for the evaluation, timed from the
// start of the lease work, and uploads it with the result so the
// coordinator can stitch one cluster-wide trace. Renewals and result
// uploads carry the worker's metrics snapshot — the metrics-federation
// heartbeat.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.ID == "" {
		return errors.New("dist: worker needs an ID")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.Resolve == nil {
		cfg.Resolve = repro.WorkloadByName
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	w := &worker{cfg: cfg, log: cfg.Log.With("component", "worker", "worker", cfg.ID)}
	scope := cfg.Registry.Scope(wire.ScopeWorker)
	w.leases = scope.Counter("leases_total")
	w.completed = scope.Counter("leases_completed_total")
	w.failures = scope.Counter("leases_failed_total")
	w.lost = scope.Counter("leases_lost_total")
	w.log.Info("worker polling", "coordinator", cfg.Coordinator, "cores", runtime.GOMAXPROCS(0))
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, err := w.poll(ctx)
		if err != nil || lease == nil {
			// Coordinator unreachable or idle: wait one interval.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(cfg.PollInterval):
			}
			continue
		}
		w.process(ctx, lease)
	}
}

type worker struct {
	cfg                               WorkerConfig
	log                               *obslog.Logger
	leases, completed, failures, lost *telemetry.Counter
}

// poll asks for a lease; nil without error means no work.
func (w *worker) poll(ctx context.Context) (*Lease, error) {
	var lease Lease
	status, err := w.post(ctx, "/v1/dist/poll", PollRequest{
		Worker: WorkerInfo{ID: w.cfg.ID, Cores: runtime.GOMAXPROCS(0)},
	}, &lease)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNoContent {
		return nil, nil
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("dist: poll status %d", status)
	}
	return &lease, nil
}

// process evaluates one lease end to end.
func (w *worker) process(ctx context.Context, lease *Lease) {
	w.leases.Inc()
	// The lease context dies with the session, and also when the
	// renewal loop discovers the lease was lost — which aborts the
	// estimation at its next chunk boundary instead of wasting the
	// remaining work.
	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	renewDone := make(chan struct{})
	go func() {
		defer close(renewDone)
		w.renewLoop(leaseCtx, cancel, lease)
	}()
	defer func() { cancel(); <-renewDone }()

	// The worker's half of the stitched trace: a fresh per-lease trace
	// on the registry, rooted in a span carrying the granted context.
	// Leases are processed sequentially, so swapping the registry's
	// trace per lease is safe.
	tr := telemetry.NewTrace()
	w.cfg.Registry.SetTrace(tr)
	defer w.cfg.Registry.SetTrace(nil)
	root := tr.StartSpan(nil, "worker.lease")
	root.SetAttr("worker", w.cfg.ID)
	root.SetAttr("lease", lease.ID)
	root.SetAttr("job", lease.Job)
	root.SetAttr("traceparent", lease.Trace.Traceparent())
	root.SetAttr("lo", lease.Range.Lo)
	root.SetAttr("hi", lease.Range.Hi)
	// A separate variable: the renewal goroutine above still reads
	// leaseCtx, so reassigning it here would race.
	runCtx := telemetry.ContextWithSpan(leaseCtx, root)

	log := w.log.With("job", lease.Job, "lease", lease.ID, "trace", lease.Trace.TraceID)
	log.Debug("lease granted", "lo", lease.Range.Lo, "hi", lease.Range.Hi)
	w.cfg.Registry.Emit(wire.EvWorkerLeaseStart, map[string]any{
		"job": lease.Job, "lease": lease.ID, "trace": lease.Trace.TraceID,
		"lo": lease.Range.Lo, "hi": lease.Range.Hi,
	})

	metric, err := w.cfg.Resolve(lease.Spec.Workload)
	if err == nil {
		var run *repro.PartialRun
		opts := lease.Spec.Options()
		opts.Telemetry = w.cfg.Registry
		run, err = repro.EstimatePartial(runCtx, metric, opts, []repro.ShardRange{lease.Range})
		if err == nil {
			root.End()
			up := ResultUpload{PrefixDigest: run.Prefix.Digest(), Chunks: run.Chunks}
			if lease.NeedPrefix {
				up.Prefix = &run.Prefix
			}
			up.Spans = tr.Snapshot()
			up.Metrics = WirePoints(w.cfg.Registry.Snapshot())
			status, postErr := w.post(ctx, "/v1/dist/leases/"+lease.ID+"/result", up, nil)
			switch {
			case postErr != nil:
				err = postErr
			case status == http.StatusOK:
				w.completed.Inc()
				w.cfg.Registry.Emit(wire.EvWorkerLeaseDone, map[string]any{
					"job": lease.Job, "lease": lease.ID, "spans": len(up.Spans),
				})
				log.Debug("lease completed", "spans", len(up.Spans))
				return
			default:
				err = fmt.Errorf("dist: result upload status %d", status)
			}
		}
	}
	root.End()
	// The coordinator requeues the range; a lost lease (cancelled
	// leaseCtx, 410 upload) needs no report.
	if ctx.Err() == nil && leaseCtx.Err() == nil {
		w.failures.Inc()
		w.cfg.Registry.Emit(wire.EvWorkerLeaseFailed, map[string]any{
			"job": lease.Job, "lease": lease.ID, "error": err.Error(),
		})
		log.Warn("lease failed", "error", err.Error())
		w.post(ctx, "/v1/dist/leases/"+lease.ID+"/fail", FailUpload{Error: err.Error()}, nil)
	} else {
		w.lost.Inc()
		w.cfg.Registry.Emit(wire.EvWorkerLeaseLost, map[string]any{
			"job": lease.Job, "lease": lease.ID,
		})
		log.Warn("lease lost")
	}
}

// renewLoop heartbeats the lease at a third of its TTL; a 410 means the
// lease was reassigned, so the evaluation is cancelled. Each beat
// carries the worker's metrics snapshot.
func (w *worker) renewLoop(ctx context.Context, cancel context.CancelFunc, lease *Lease) {
	ttl := time.Duration(lease.TTLSeconds * float64(time.Second))
	period := max(ttl/3, 10*time.Millisecond)
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			beat := RenewRequest{Metrics: WirePoints(w.cfg.Registry.Snapshot())}
			status, err := w.post(ctx, "/v1/dist/leases/"+lease.ID+"/renew", beat, nil)
			if err == nil && status == http.StatusGone {
				cancel()
				return
			}
			// Transient errors are fine — the TTL absorbs a missed beat.
		}
	}
}

// post sends a JSON request and decodes a 2xx body into out (when
// non-nil), returning the status code.
func (w *worker) post(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}
