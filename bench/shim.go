package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/mc"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// circuitStats accumulates what the shims sharing it saw of the sram
// layer: scalar calls (the start-point search and the Gibbs chain) and
// batch calls (the evaluation pool), with their summed wall time.
type circuitStats struct {
	scalarSims, scalarNS           atomic.Int64
	batchSims, batchCalls, batchNS atomic.Int64
}

// circuit is a point-in-time copy of circuitStats, in seconds.
type circuit struct {
	scalarSims, batchSims, batchCalls int64
	scalarS, batchS                   float64
}

func (c *circuitStats) snapshot() circuit {
	return circuit{
		scalarSims: c.scalarSims.Load(), batchSims: c.batchSims.Load(), batchCalls: c.batchCalls.Load(),
		scalarS: float64(c.scalarNS.Load()) / 1e9, batchS: float64(c.batchNS.Load()) / 1e9,
	}
}

func (c circuit) minus(o circuit) circuit {
	return circuit{
		scalarSims: c.scalarSims - o.scalarSims, batchSims: c.batchSims - o.batchSims,
		batchCalls: c.batchCalls - o.batchCalls,
		scalarS:    c.scalarS - o.scalarS, batchS: c.batchS - o.batchS,
	}
}

func (c circuit) sims() int64 { return c.scalarSims + c.batchSims }

func (c circuit) seconds() float64 { return c.scalarS + c.batchS }

// shim wraps a circuit metric and times every call into it. It keeps the
// wrapped metric's batch capability, so the library dispatches exactly as
// it would without it, and forwards SetTelemetry to reach the spice layer.
type shim struct {
	m     mc.BatchMetric
	stats *circuitStats
}

func newShim(m repro.Metric, stats *circuitStats) (*shim, error) {
	bm, ok := m.(mc.BatchMetric)
	if !ok {
		return nil, fmt.Errorf("metric %T has no batch path", m)
	}
	return &shim{m: bm, stats: stats}, nil
}

func (s *shim) Dim() int { return s.m.Dim() }

func (s *shim) Value(x []float64) float64 {
	t0 := time.Now()
	v := s.m.Value(x)
	s.stats.scalarNS.Add(int64(time.Since(t0)))
	s.stats.scalarSims.Add(1)
	return v
}

func (s *shim) ValueBatch(xs [][]float64, out []float64) {
	t0 := time.Now()
	s.m.ValueBatch(xs, out)
	s.stats.batchNS.Add(int64(time.Since(t0)))
	s.stats.batchSims.Add(int64(len(xs)))
	s.stats.batchCalls.Add(1)
}

// SetTelemetry threads reg into the wrapped metric's spice solves.
func (s *shim) SetTelemetry(reg *telemetry.Registry) {
	if tm, ok := s.m.(interface{ SetTelemetry(*telemetry.Registry) }); ok {
		tm.SetTelemetry(reg)
	}
}

// spiceCounts are the spice layer's registry counters.
type spiceCounts struct {
	solves, newtonIters, newtonSolves float64
	warmHits, warmFalls               float64
	fallbacks, unconverged            float64
}

// readSpice reads the spice scope of reg as the solver left it.
func readSpice(reg *telemetry.Registry) spiceCounts {
	var c spiceCounts
	for _, p := range reg.Snapshot() {
		if p.Scope != wire.ScopeSpice {
			continue
		}
		switch p.Name {
		case "solves_total":
			c.solves = p.Value
		case "newton_iterations":
			c.newtonIters, c.newtonSolves = p.Sum, float64(p.Count)
		case "warm_hit_total":
			c.warmHits = p.Value
		case "warm_fallback_total":
			c.warmFalls = p.Value
		case "fallback_gmin_total", "fallback_source_total":
			c.fallbacks += p.Value
		case "unconverged_total":
			c.unconverged = p.Value
		}
	}
	return c
}

// report sets the spice.* metrics for sims circuit evaluations.
func (c spiceCounts) report(m *measurement, sims int64) {
	m.set("spice.solves_per_sim", c.solves/float64(sims))
	m.set("spice.newton_iters_per_solve", ratio(c.newtonIters, c.newtonSolves))
	m.set("spice.warm_hit_rate", ratio(c.warmHits, c.warmHits+c.warmFalls))
	m.set("spice.fallback_total", c.fallbacks)
	m.set("spice.unconverged_total", c.unconverged)
}

// ratio is a/b, or 0 when nothing was counted (a layer the workload does
// not reach, such as warm starts in a transient solve).
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
