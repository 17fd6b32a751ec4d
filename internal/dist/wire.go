// Package dist shards estimation jobs across worker nodes over a
// pull-based HTTP/JSON lease protocol, with the coordinator embedded in
// sramserverd and workers running sramworkerd.
//
// The protocol is built on the library's replicated-prefix seam
// (repro.EstimatePartial / repro.FoldPartials): every worker replays a
// job's deterministic first stage locally and evaluates only the
// contiguous chunk-index range it holds a lease on, streaming back the
// range's partial statistics. The coordinator folds the partials in
// strict chunk-index order, so the final Result — report included — is
// bit-identical to a single-node run of the same options. Worker loss
// is handled by lease expiry: an unrenewed lease returns its range to
// the queue and another worker picks it up; prefix digests cross-check
// that every contributor computed the same first stage.
//
// The protocol also carries the cluster observability plane. Every
// lease grants a trace context (trace id, parent span id, job, lease —
// the W3C traceparent decomposition); workers evaluate their range
// under that context and upload finished span records, timed from the
// start of their lease work, with the partials. The coordinator places
// them from the start of the lease's own span and grafts them under it
// — one stitched Chrome trace per distributed job, with no wall clocks
// compared across processes. Every renewal and result upload carries
// the worker's registry snapshot, which the coordinator republishes
// per-worker and aggregated at /metrics and GET /v1/cluster. The
// snapshot's health gauges are the worker's watchdog alerts: the
// coordinator lists them in the worker's status and forwards each new
// kind to the global event stream once.
//
//	POST /v1/dist/poll               lease a range (204 when no work)
//	POST /v1/dist/leases/{id}/renew  extend a held lease (410 when lost)
//	POST /v1/dist/leases/{id}/result upload the range's partials + spans
//	POST /v1/dist/leases/{id}/fail   report a failed range
//	GET  /v1/cluster                 fleet summary (workers, leases, rates)
package dist

import (
	"fmt"
	"math"

	"repro"
	"repro/internal/jobs"
	"repro/internal/mc"
	"repro/internal/telemetry"
)

// WorkerInfo identifies a polling worker.
type WorkerInfo struct {
	// ID names the worker; every poll from the same ID accrues to the
	// same health record and per-worker metrics.
	ID string `json:"id"`
	// Cores is the worker's GOMAXPROCS, the size of the pool a job
	// with Workers 0 evaluates on (informational).
	Cores int `json:"cores,omitempty"`
}

// PollRequest asks the coordinator for work.
type PollRequest struct {
	Worker WorkerInfo `json:"worker"`
}

// TraceContext is the distributed trace context a lease carries — the
// W3C traceparent fields (trace id, parent span id) plus the job and
// lease ids that correlate spans, log records and events across the
// coordinator and every worker that touches the job.
type TraceContext struct {
	// TraceID is the job-scoped 16-byte lowercase-hex trace identifier.
	TraceID string `json:"trace_id"`
	// ParentSpanID identifies the coordinator's lease span (8-byte
	// lowercase hex); worker spans are stitched under it.
	ParentSpanID string `json:"parent_span_id"`
	// Job and Lease are the correlation ids for logs and events.
	Job   string `json:"job"`
	Lease string `json:"lease"`
}

// Traceparent renders the context in the W3C traceparent header format:
// version 00, sampled.
func (tc TraceContext) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-01", tc.TraceID, tc.ParentSpanID)
}

// Lease grants one contiguous chunk-index range of one job to a worker
// until TTLSeconds elapse; renewals extend it, expiry requeues it.
type Lease struct {
	ID  string `json:"id"`
	Job string `json:"job"`
	// Spec is the full job request; the worker replays its prefix and
	// evaluates Range of the Total-sample terminal stage.
	Spec  jobs.Request     `json:"spec"`
	Range repro.ShardRange `json:"range"`
	Total int              `json:"total"`
	// TTLSeconds is the lease's time to live; renew at a fraction of it.
	TTLSeconds float64 `json:"ttl_seconds"`
	// NeedPrefix asks the worker to include the full prefix in its
	// upload (the coordinator does not have one for this job yet);
	// otherwise the digest alone suffices.
	NeedPrefix bool `json:"need_prefix,omitempty"`
	// Trace is the distributed trace context the worker evaluates under;
	// its uploaded spans stitch in below Trace.ParentSpanID.
	Trace TraceContext `json:"trace"`
}

// RenewRequest is the renew POST body: the federation heartbeat. An
// empty object is a plain renewal.
type RenewRequest struct {
	// Metrics is the worker's registry snapshot, sanitized for JSON with
	// WirePoints. The coordinator republishes it under the per-worker
	// metrics scope, folds it into the cluster aggregates and reads the
	// worker's alerts from its health gauges.
	Metrics []telemetry.MetricPoint `json:"metrics,omitempty"`
}

// RenewResponse acknowledges a renewal.
type RenewResponse struct {
	TTLSeconds float64 `json:"ttl_seconds"`
}

// ResultUpload carries a completed range back to the coordinator.
type ResultUpload struct {
	// PrefixDigest is the worker's repro.Prefix digest; the coordinator
	// rejects (409) a partial whose prefix disagrees with the job's.
	PrefixDigest string `json:"prefix_digest"`
	// Prefix is included when the lease asked for it.
	Prefix *repro.Prefix `json:"prefix,omitempty"`
	// Chunks are the partial statistics of the leased range.
	Chunks []mc.Partial `json:"chunks,omitempty"`
	// Spans are the finished spans of the worker's lease evaluation,
	// timed from when the worker started on the lease; the coordinator
	// places them from the start of the lease's span.
	Spans []telemetry.SpanSnapshot `json:"spans,omitempty"`
	// Metrics piggybacks a final registry snapshot on the upload, so
	// short leases that never renewed still federate their counters and
	// health gauges.
	Metrics []telemetry.MetricPoint `json:"metrics,omitempty"`
}

// FailUpload reports that the worker could not complete its range.
type FailUpload struct {
	Error string `json:"error"`
}

// WorkerStatus is one worker's health record as served by
// GET /v1/cluster.
type WorkerStatus struct {
	ID    string `json:"id"`
	Cores int    `json:"cores,omitempty"`
	// LastSeen is the RFC 3339 time of the worker's last request.
	LastSeen string `json:"last_seen"`
	// Active is the number of leases the worker currently holds;
	// Completed, Failed and Expired count its finished leases; Samples
	// and Sims total the terminal-stage samples and transistor-level
	// simulations it has contributed.
	Active    int   `json:"active"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Expired   int64 `json:"expired"`
	Samples   int64 `json:"samples"`
	Sims      int64 `json:"sims"`
	// SimsPerSec is the worker's self-reported live sampling rate (from
	// its progress gauge, via the federation heartbeat); 0 while it
	// holds no lease.
	SimsPerSec float64 `json:"sims_per_sec,omitempty"`
	// Health lists the alert kinds the worker's watchdog has fired (its
	// health gauges above 0), sorted.
	Health []string `json:"health,omitempty"`
}

// ClusterSummary is the fleet-level view served by GET /v1/cluster:
// per-worker status plus the folded totals the dashboard renders.
type ClusterSummary struct {
	Workers []WorkerStatus `json:"workers"`
	// ActiveLeases and PendingRanges describe work in flight; DistJobs
	// is the number of distributed jobs currently sharded.
	ActiveLeases  int `json:"active_leases"`
	PendingRanges int `json:"pending_ranges"`
	DistJobs      int `json:"dist_jobs"`
	// SimsPerSec is the fleet's folded live sampling rate (sum of the
	// busy workers' self-reported rates); Samples and Sims are lifetime
	// contribution totals.
	SimsPerSec float64 `json:"sims_per_sec"`
	Samples    int64   `json:"samples"`
	Sims       int64   `json:"sims"`
	// LeasesGranted/Completed/Expired/Failed are coordinator lifetime
	// counters.
	LeasesGranted   int64 `json:"leases_granted"`
	LeasesCompleted int64 `json:"leases_completed"`
	LeasesExpired   int64 `json:"leases_expired"`
	LeasesFailed    int64 `json:"leases_failed"`
	// GeneratedUnixUS timestamps the summary on the coordinator clock.
	GeneratedUnixUS int64 `json:"generated_unix_us"`
}

// WirePoints sanitizes a registry snapshot for the JSON wire: bucket
// arrays are dropped (quantiles travel instead — the overflow bucket's
// +Inf bound cannot be marshaled) and non-finite aggregates (the NaN
// quantiles and ±Inf extrema of an empty histogram) are zeroed. The
// input is not modified.
func WirePoints(points []telemetry.MetricPoint) []telemetry.MetricPoint {
	if len(points) == 0 {
		return nil
	}
	out := make([]telemetry.MetricPoint, 0, len(points))
	for _, p := range points {
		p.Buckets = nil
		p.Value = finite(p.Value)
		p.Sum = finite(p.Sum)
		p.Min = finite(p.Min)
		p.Max = finite(p.Max)
		p.P50 = finite(p.P50)
		p.P90 = finite(p.P90)
		p.P99 = finite(p.P99)
		out = append(out, p)
	}
	return out
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
