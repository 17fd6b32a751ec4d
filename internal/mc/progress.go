package mc

import (
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// stageProgress is the throughput estimator behind the live
// observability plane: it publishes one "progress" snapshot per
// dispatched evaluation chunk with the measured sims/sec and the ETA
// derived from it, alongside the running estimate. The same numbers
// back the job service's status JSON (eta_seconds, sims_per_sec
// gauges), the SSE streams and the CLI -stats footer, so every surface
// reports one consistent estimate.
//
// A nil *stageProgress (telemetry disabled) is fully inert, and an
// enabled one only reads the wall clock and the accumulated tallies —
// it never touches the random stream, so estimates are bit-identical
// with progress reporting on or off.
type stageProgress struct {
	reg   *telemetry.Registry
	stage string
	total int
	start time.Time

	chunks int

	// Legacy estimator gauges ("mc" scope), kept for /metrics scrapers.
	gN, gPf, gRel *telemetry.Gauge
	// Shared throughput gauges ("progress" scope), read by the job
	// snapshot API and the -stats footer.
	gProgN, gProgTotal, gChunks, gRate, gETA *telemetry.Gauge
}

// newStageProgress starts the throughput clock for one estimation
// stage. total is the stage's sample budget (the cap for until-target
// runs — the ETA is then the worst case, shrinking as the run
// converges). Returns nil — fully inert — when reg is nil.
func newStageProgress(reg *telemetry.Registry, stage string, total int) *stageProgress {
	if reg == nil {
		return nil
	}
	mcScope := reg.Scope(wire.ScopeMC)
	prog := reg.Scope(wire.ScopeProgress)
	p := &stageProgress{
		reg:   reg,
		stage: stage,
		total: total,
		start: time.Now(),

		gN:   mcScope.Gauge("stage2_n"),
		gPf:  mcScope.Gauge("stage2_pf"),
		gRel: mcScope.Gauge("stage2_relerr99"),

		gProgN:     prog.Gauge("n"),
		gProgTotal: prog.Gauge("total"),
		gChunks:    prog.Gauge("chunks_done"),
		gRate:      prog.Gauge("sims_per_sec"),
		gETA:       prog.Gauge("eta_seconds"),
	}
	p.gProgTotal.Set(float64(total))
	return p
}

// publish records one chunk boundary: refresh the gauges and emit the
// "progress" event. n is the samples consumed so far, pf/relerr the
// running estimate, and maxWFrac the share of the estimate carried by
// the largest single importance weight (0 when not applicable). The
// ETA is always finite: remaining samples over measured throughput,
// zero until the first chunk lands or once the budget is consumed.
func (p *stageProgress) publish(n, failures int, pf, relerr, maxWFrac float64) {
	if p == nil {
		return
	}
	p.chunks++
	elapsed := time.Since(p.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(n) / elapsed
	}
	eta := 0.0
	if rate > 0 && p.total > n {
		eta = float64(p.total-n) / rate
	}

	p.gN.Set(float64(n))
	p.gPf.Set(pf)
	p.gRel.Set(relerr)
	p.gProgN.Set(float64(n))
	p.gChunks.Set(float64(p.chunks))
	p.gRate.Set(rate)
	p.gETA.Set(eta)

	p.reg.Emit(wire.EvProgress, map[string]any{
		"stage": p.stage, "chunks": p.chunks, "n": n, "total": p.total,
		"failures": failures, "pf": pf, "relerr99": relerr,
		"max_weight_frac": maxWFrac,
		"sims_per_sec":    rate, "eta_seconds": eta,
	})
}

// done zeroes the ETA (the stage finished — nothing remains) and emits
// the closing "estimator.done" event.
func (p *stageProgress) done(res *Result) {
	if p == nil {
		return
	}
	p.gETA.Set(0)
	p.reg.Emit(wire.EvEstimatorDone, map[string]any{
		"stage": p.stage, "n": res.N, "pf": res.Pf, "relerr99": res.RelErr99,
		"failures": res.Failures, "weight_ess": res.WeightESS,
	})
}
