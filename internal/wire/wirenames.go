// Package wire is the cluster wire-name registry: the single file
// (wirenames.go) where every telemetry event name, metric scope name,
// watchdog alert kind, and problem-URN slug is declared. These strings
// are protocol, not prose — coordinator and workers match on them
// across process boundaries, SSE clients and the fleet dashboard parse
// them, and DESIGN.md §15 freezes them. The wirestable analyzer
// (internal/lint) enforces that producers compose wire names only from
// the constants below, so a renamed event cannot silently strand every
// consumer on the old spelling.
//
// The package imports nothing and is imported by everything that
// speaks the wire format; add new names here, never inline.
package wire

// Telemetry event names (Registry.Emit / Bus.Publish / SSE stream).
const (
	// Estimator lifecycle, emitted by the root package.
	EvRunStart = "run.start"
	EvRunDone  = "run.done"

	// Job lifecycle, emitted by internal/jobs.
	EvJobSubmitted = "job.submitted"
	EvJobDone      = "job.done"

	// Live progress: one snapshot per stride from mc and gibbs.
	EvProgress = "progress"
	// Per-chain Gibbs mixing report (also the chain span name).
	EvGibbsChain = "gibbs.chain"

	// Two-stage flow phase markers, emitted by internal/gibbs.
	EvStage1Start      = "stage1.start"
	EvStage1StartPoint = "stage1.start_point"
	EvStage1Done       = "stage1.done"
	EvStage2Start      = "stage2.start"

	// A DC solve that exhausted every strategy, emitted by internal/spice.
	EvSpiceUnconverged = "spice.unconverged"

	// Estimator completion snapshot, emitted by internal/mc.
	EvEstimatorDone = "estimator.done"

	// Worker-side lease lifecycle, emitted by internal/dist workers.
	EvWorkerLeaseStart  = "worker.lease.start"
	EvWorkerLeaseDone   = "worker.lease.done"
	EvWorkerLeaseFailed = "worker.lease.failed"
	EvWorkerLeaseLost   = "worker.lease.lost"

	// Coordinator-side distribution lifecycle.
	EvDistJobStart     = "dist.job.start"
	EvDistJobDone      = "dist.job.done"
	EvDistWorkerJoined = "dist.worker.joined"
	EvDistLeaseExpired = "dist.lease.expired"
	EvDistLeaseGranted = "dist.lease.granted"
	EvDistLeaseResult  = "dist.lease.result"

	// Watchdog alerts: EvHealthPrefix + an Alert* kind below; the
	// coordinator re-publishes worker alerts under EvWorkerHealthPrefix.
	EvHealthPrefix       = "health."
	EvWorkerHealthPrefix = "worker.health."

	// SSE stream bookkeeping meta-events, emitted by internal/jobs.
	EvStreamGap     = "stream.gap"
	EvStreamDropped = "stream.dropped"
)

// Watchdog alert kinds (the suffix of EvHealthPrefix events and the
// per-kind health gauges).
const (
	AlertChainStalled = "chain_stalled"
	AlertWeightBlowup = "weight_blowup"
	AlertNewtonStorm  = "newton_storm"
)

// Metric scope names (Registry.Scope).
const (
	ScopeMC       = "mc"
	ScopeProgress = "progress"
	ScopeGibbs    = "gibbs"
	ScopeSpice    = "spice"
	ScopeJobs     = "jobs"
	ScopeHealth   = "health"
	ScopeWorker   = "worker"
	ScopeDist     = "dist"
	ScopeCluster  = "cluster"

	// Dynamic scopes: prefix + identifier chosen at runtime.
	ScopeJobPrefix        = "job_"
	ScopeDistWorkerPrefix = "dist_worker_"
)

// Problem URNs (RFC 9457 problem+json Type members, v1 jobs API and
// the dist lease protocol).
const (
	ProblemURNPrefix = "urn:repro:problem:"

	ProblemQueueFull            = ProblemURNPrefix + "queue-full"
	ProblemDraining             = ProblemURNPrefix + "draining"
	ProblemNotFound             = ProblemURNPrefix + "not-found"
	ProblemIdempotencyConflict  = ProblemURNPrefix + "idempotency-conflict"
	ProblemDistributionDisabled = ProblemURNPrefix + "distribution-disabled"
	ProblemNotDistributable     = ProblemURNPrefix + "not-distributable"
	ProblemInvalidRequest       = ProblemURNPrefix + "invalid-request"
	ProblemInternal             = ProblemURNPrefix + "internal"
	ProblemLeaseLost            = ProblemURNPrefix + "lease-lost"
	ProblemPrefixMismatch       = ProblemURNPrefix + "prefix-mismatch"
)
