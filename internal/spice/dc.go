package spice

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// ErrNoConvergence is returned when the operating-point solve exhausts
// Newton iterations, gmin stepping and source stepping.
var ErrNoConvergence = errors.New("spice: DC operating point did not converge")

// Strategy identifies which convergence aid (if any) rescued a DC solve.
// Production flows care about the difference: a clean Newton solve and a
// source-stepped one land on the same operating point, but the latter
// flags a bias point near a bifurcation where the model is working hard.
type Strategy int

// Solve strategies, in escalation order.
const (
	// StrategyNewton: plain damped Newton from the initial guess.
	StrategyNewton Strategy = iota
	// StrategyGmin: rescued by gmin stepping (heavy shunt, relaxed).
	StrategyGmin
	// StrategySource: rescued by source stepping (supplies ramped from 0).
	StrategySource
	// StrategyWarm: converged from the anchor handed to SolveDCFrom,
	// skipping the cold path.
	StrategyWarm
)

func (s Strategy) String() string {
	switch s {
	case StrategyNewton:
		return "newton"
	case StrategyGmin:
		return "gmin-stepping"
	case StrategySource:
		return "source-stepping"
	case StrategyWarm:
		return "warm-start"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// OperatingPoint is a solved DC solution.
type OperatingPoint struct {
	circuit *Circuit
	x       []float64
	// strategy records which convergence aid produced the solution;
	// iters counts the Newton iterations consumed across every attempt
	// of the solve, and residual is the max-|KCL| residual at the final
	// converged iterate.
	strategy Strategy
	iters    int
	residual float64
}

// Strategy reports which solve strategy converged: plain Newton, gmin
// stepping or source stepping.
func (op *OperatingPoint) Strategy() Strategy { return op.strategy }

// NewtonIterations returns the total Newton iterations the solve
// consumed, including failed attempts before a fallback succeeded.
func (op *OperatingPoint) NewtonIterations() int { return op.iters }

// Residual returns the maximum absolute KCL residual at convergence.
func (op *OperatingPoint) Residual() float64 { return op.residual }

// Voltage returns the solved voltage of a named node (0 for ground);
// asking for an unknown node is a netlist bug and panics.
func (op *OperatingPoint) Voltage(node string) float64 {
	idx, ok := op.circuit.nodeIndex[node]
	if !ok {
		panic(fmt.Sprintf("spice: unknown node %q", node))
	}
	return voltageAt(op.x, idx)
}

// Clone deep-copies the operating point (for use as a later initial guess).
func (op *OperatingPoint) Clone() *OperatingPoint {
	c := *op
	c.x = linalg.CopyVec(op.x)
	return &c
}

// PredictFrom linearly extrapolates the unknown vector one step past op
// along the secant from prev to op (2·op − prev): the classic
// continuation predictor for sweeps, where consecutive solutions evolve
// smoothly with the swept parameter. The result is only an initial
// guess — hand it to SolveDCFrom. prev must come from the same circuit;
// mismatched sizes return op itself (predicting is best-effort).
func (op *OperatingPoint) PredictFrom(prev *OperatingPoint) *OperatingPoint {
	if prev == nil || len(prev.x) != len(op.x) {
		return op
	}
	p := *op
	p.x = make([]float64, len(op.x))
	for i, v := range op.x {
		p.x[i] = 2*v - prev.x[i]
	}
	return &p
}

// DCOptions tunes the Newton solve. The zero value picks robust defaults.
type DCOptions struct {
	// MaxIter bounds Newton iterations per attempt (default 150).
	MaxIter int
	// VTol is the voltage-update convergence tolerance (default 1e-9 V).
	VTol float64
	// ITol is the KCL residual tolerance (default 1e-9 A; node currents
	// in the SRAM cell are µA-scale).
	ITol float64
	// MaxStep limits the per-iteration voltage update (default 0.4 V).
	MaxStep float64
	// Gmin is the shunt conductance from every node to ground
	// (default 1e-12 S).
	Gmin float64
	// InitialGuess seeds node voltages by name. Nodes not listed start at
	// 0 V. This is how callers select a bistable cell's state.
	InitialGuess map[string]float64
	// Warm, if non-nil, seeds the full unknown vector from a previous
	// solution of the same circuit (used by sweeps); it overrides
	// InitialGuess.
	Warm *OperatingPoint
	// Telemetry, when non-nil, records per-solve metrics (strategy
	// fallbacks, Newton iterations, residuals, wall time) into the
	// "spice" scope and emits fallback warning events. Nil is a no-op:
	// the solve path pays only a nil check.
	Telemetry *telemetry.Registry
	// NoBranchCurrents skips the post-convergence recovery of eliminated
	// sources' branch currents (they read as zero via VSource.Current).
	// Node voltages are unaffected bit-for-bit. Sweep-heavy callers that
	// only consume voltages set this to drop one full device stamp per
	// solve.
	NoBranchCurrents bool
}

func (o *DCOptions) defaults() DCOptions {
	d := DCOptions{MaxIter: 150, VTol: 1e-9, ITol: 1e-9, MaxStep: 0.4, Gmin: 1e-12}
	if o == nil {
		return d
	}
	out := *o
	if out.MaxIter <= 0 {
		out.MaxIter = d.MaxIter
	}
	if out.VTol <= 0 {
		out.VTol = d.VTol
	}
	if out.ITol <= 0 {
		out.ITol = d.ITol
	}
	if out.MaxStep <= 0 {
		out.MaxStep = d.MaxStep
	}
	if out.Gmin <= 0 {
		out.Gmin = d.Gmin
	}
	return out
}

// SolveDC computes the DC operating point. It first tries plain damped
// Newton from the initial guess; on failure it falls back to gmin stepping
// and then source stepping, mirroring production SPICE practice. The
// returned operating point records which strategy converged (Strategy),
// the Newton iterations consumed and the residual at convergence. It is
// SolveDCFrom without a warm start.
func (c *Circuit) SolveDC(opts *DCOptions) (*OperatingPoint, error) {
	return c.SolveDCFrom(nil, 0, nil, opts)
}

// DefaultWarmMaxIter is the Newton budget for a warm-start attempt. Warm
// starts that are going to converge do so in a handful of iterations;
// anything still wandering after this budget is cheaper to restart cold
// than to keep polishing.
const DefaultWarmMaxIter = 40

// SolveDCFrom computes the DC operating point, first attempting damped
// Newton from the anchor solution with a warmIter iteration budget
// (<= 0 selects DefaultWarmMaxIter). A converged warm attempt must also
// pass guard (when non-nil) — guards reject warm solutions that left the
// intended basin of a bistable circuit. On any warm failure the solve
// falls back to SolveDC's cold escalation, the returned operating point
// counts the warm attempt's iterations as well, and the fallback is
// recorded in the "spice" telemetry scope (warm_fallback_total); warm
// successes record warm_hit_total and report StrategyWarm.
//
// A nil anchor (or one sized for a different topology) skips straight to
// the cold escalation without counting a fallback: the caller had no
// warm start to offer, which is different from offering one that failed.
//
// Telemetry sees every call as one solve, whichever attempts it took:
// one solve_seconds and newton_iterations observation, one "spice.solve"
// span aggregate, and a "spice.fallback" event only when gmin or source
// stepping converged.
func (c *Circuit) SolveDCFrom(anchor *OperatingPoint, warmIter int, guard func(*OperatingPoint) bool, opts *DCOptions) (*OperatingPoint, error) {
	o := opts.defaults()
	tel := c.dcTel(o.Telemetry)
	sw, span := c.startSolveClock(tel, o.Telemetry)
	var op *OperatingPoint
	var err error
	warmIters := 0
	if anchor != nil && len(anchor.x) == c.NumUnknowns() {
		if op, warmIters = c.warmDC(anchor, warmIter, guard, o); op == nil {
			tel.warmFalls.Inc()
		}
	}
	if op == nil {
		if op, err = c.solveDC(&o); err == nil {
			op.iters += warmIters
		}
	}
	secs := sw.Stop()
	// With span tracing on, credit the solve to the innermost pipeline
	// stage (the solver has no context of its own).
	if span != nil {
		span.Agg("spice.solve").Observe(secs)
	}
	if err != nil {
		tel.unconverged.Inc()
		if o.Telemetry.Enabled() {
			o.Telemetry.Emit(wire.EvSpiceUnconverged, map[string]any{"error": err.Error()})
		}
		return nil, err
	}
	tel.solves.Inc()
	tel.newtonIters.Observe(float64(op.iters))
	tel.residual.Observe(op.residual)
	switch op.strategy {
	case StrategyNewton:
		return op, nil
	case StrategyWarm:
		tel.warmHits.Inc()
		return op, nil
	case StrategyGmin:
		tel.gminFalls.Inc()
	case StrategySource:
		tel.sourceFalls.Inc()
	}
	if o.Telemetry.Enabled() {
		o.Telemetry.Emit(wire.EvSpiceFallback, map[string]any{
			"strategy": op.strategy.String(), "newton_iterations": op.iters,
		})
	}
	return op, nil
}

// warmDC is SolveDCFrom's warm attempt: damped Newton from the anchor
// within the warm iteration budget. It returns the accepted operating
// point, or nil when Newton failed or guard rejected the result, and the
// iterations spent either way.
func (c *Circuit) warmDC(anchor *OperatingPoint, warmIter int, guard func(*OperatingPoint) bool, o DCOptions) (*OperatingPoint, int) {
	o.MaxIter = warmIter
	if o.MaxIter <= 0 {
		o.MaxIter = DefaultWarmMaxIter
	}
	c.indexBranches()
	x := linalg.CopyVec(anchor.x)
	st, err := c.newton(x, &o, o.Gmin, 1.0)
	if err != nil {
		return nil, st.iters
	}
	op := &OperatingPoint{circuit: c, x: x, strategy: StrategyWarm,
		iters: st.iters, residual: st.residual}
	if guard != nil && !guard(op) {
		return nil, st.iters
	}
	return op, st.iters
}

// solveDC runs the cold strategy escalation; o must already have
// defaults applied.
func (c *Circuit) solveDC(o *DCOptions) (*OperatingPoint, error) {
	c.indexBranches()
	n := c.NumUnknowns()
	x := make([]float64, n)
	if o.Warm != nil {
		if len(o.Warm.x) != n {
			return nil, fmt.Errorf("spice: warm start size %d does not match system size %d", len(o.Warm.x), n)
		}
		copy(x, o.Warm.x)
	} else {
		for name, v := range o.InitialGuess {
			idx, ok := c.nodeIndex[name]
			if !ok {
				return nil, fmt.Errorf("spice: initial guess for unknown node %q", name)
			}
			if idx >= 0 {
				x[idx] = v
			}
		}
	}

	totalIters := 0
	if st, err := c.newton(x, o, o.Gmin, 1.0); err == nil {
		return &OperatingPoint{circuit: c, x: x, strategy: StrategyNewton,
			iters: st.iters, residual: st.residual}, nil
	} else {
		totalIters += st.iters
	}

	// Gmin stepping: solve with a heavy shunt, then relax it.
	xg := linalg.CopyVec(x)
	ok := true
	for gmin := 1e-2; gmin >= o.Gmin; gmin /= 10 {
		st, err := c.newton(xg, o, gmin, 1.0)
		totalIters += st.iters
		if err != nil {
			ok = false
			break
		}
	}
	if ok {
		st, err := c.newton(xg, o, o.Gmin, 1.0)
		totalIters += st.iters
		if err == nil {
			return &OperatingPoint{circuit: c, x: xg, strategy: StrategyGmin,
				iters: totalIters, residual: st.residual}, nil
		}
	}

	// Source stepping: ramp all sources from 0 with an adaptive step, so
	// bifurcation-adjacent operating points (where a fixed ramp stalls)
	// are approached gradually.
	xs := make([]float64, n)
	frac, step := 0.0, 0.1
	residual := 0.0
	trial := make([]float64, n)
	for frac < 1.0 {
		next := math.Min(frac+step, 1.0)
		copy(trial, xs)
		st, err := c.newton(trial, o, o.Gmin, next)
		totalIters += st.iters
		if err != nil {
			step /= 2
			if step < 1e-4 {
				return nil, fmt.Errorf("%w (source stepping stalled at %.1f%%)", ErrNoConvergence, 100*frac)
			}
			continue
		}
		copy(xs, trial)
		frac = next
		residual = st.residual
		if step < 0.2 {
			step *= 1.5
		}
	}
	return &OperatingPoint{circuit: c, x: xs, strategy: StrategySource,
		iters: totalIters, residual: residual}, nil
}

// newtonStats reports one Newton attempt: the iterations consumed and
// the max-|KCL| residual at the last iterate (meaningful on success).
type newtonStats struct {
	iters    int
	residual float64
}

// newton runs damped Newton iteration in place on x with the given gmin
// shunt and source scale factor. It solves only the plan's free unknowns:
// nodes pinned by single-ended voltage sources are set once up front and
// their branch currents recovered after convergence, which shrinks the
// factored system from NumUnknowns to a handful of genuinely nonlinear
// voltages.
func (c *Circuit) newton(x []float64, o *DCOptions, gmin, srcScale float64) (newtonStats, error) {
	plan, ws := c.solverState()
	f, jFull, jRed := ws.f, ws.jFull, ws.jRed
	neg, dx := ws.neg, ws.dx

	// Temporarily scale sources for source stepping.
	//reprolint:ignore floateq srcScale is assigned from the stepping schedule, never computed; 1.0 is the exact "no scaling" sentinel
	if srcScale != 1.0 {
		orig := make([]float64, len(c.vsources))
		for i, v := range c.vsources {
			orig[i] = v.E
			v.E *= srcScale
		}
		defer func() {
			for i, v := range c.vsources {
				v.E = orig[i]
			}
		}()
	}

	// Pin eliminated nodes to their (possibly scaled) source values and
	// hold their branch currents at zero until recovery. Warm starts may
	// have seeded nonzero branch currents; they are not unknowns here.
	for _, pin := range plan.pins {
		x[pin.node] = pin.sign * pin.vs.E
		x[pin.vs.branch] = 0
	}

	for iter := 0; iter < o.MaxIter; iter++ {
		for i := range f {
			f[i] = 0
		}
		jFull.Zero()
		for _, d := range plan.active {
			d.Stamp(x, f, jFull)
		}
		// gmin shunts keep the Jacobian nonsingular with off devices.
		// Pinned rows never enter the factored system, so only free
		// nodes need them.
		for a := 0; a < plan.freeNodes; a++ {
			i := plan.free[a]
			f[i] += gmin * x[i]
			jFull.Add(i, i, gmin)
		}

		maxRes := 0.0
		for _, i := range plan.free {
			if a := math.Abs(f[i]); a > maxRes {
				maxRes = a
			}
		}

		// Gather the reduced system over the free unknowns.
		for a, ia := range plan.free {
			src := jFull.Row(ia)
			dst := jRed.Row(a)
			for b, ib := range plan.free {
				dst[b] = src[ib]
			}
			neg[a] = -f[ia]
		}
		if err := linalg.FactorInto(&ws.lu, jRed); err != nil {
			return newtonStats{iters: iter + 1}, fmt.Errorf("spice: singular Jacobian at iteration %d: %w", iter, err)
		}
		ws.lu.SolveInto(dx, neg)

		// Damp: limit the largest node-voltage step.
		maxDx := 0.0
		for a := 0; a < plan.freeNodes; a++ {
			if v := math.Abs(dx[a]); v > maxDx {
				maxDx = v
			}
		}
		scale := 1.0
		if maxDx > o.MaxStep {
			scale = o.MaxStep / maxDx
		}
		for a, ia := range plan.free {
			x[ia] += scale * dx[a]
		}
		if maxDx*scale < o.VTol && maxRes < o.ITol {
			if !o.NoBranchCurrents {
				c.recoverPinnedBranches(plan, ws, x)
			}
			return newtonStats{iters: iter + 1, residual: maxRes}, nil
		}
		for _, ia := range plan.free {
			if math.IsNaN(x[ia]) || math.IsInf(x[ia], 0) {
				return newtonStats{iters: iter + 1}, fmt.Errorf("spice: iterate diverged at iteration %d", iter)
			}
		}
	}
	return newtonStats{iters: o.MaxIter}, ErrNoConvergence
}

// Sweep solves the circuit repeatedly while stepping the named voltage
// source from start to stop in steps points (inclusive), warm-starting
// each solve from the previous solution. It calls fn with the source value
// and operating point after each successful solve; fn returning false
// stops the sweep early. The source value is restored afterwards.
func (c *Circuit) Sweep(sourceName string, start, stop float64, steps int, opts *DCOptions, fn func(v float64, op *OperatingPoint) bool) error {
	if steps < 2 {
		return errors.New("spice: sweep needs at least 2 points")
	}
	src, err := c.VSourceByName(sourceName)
	if err != nil {
		return err
	}
	orig := src.E
	defer func() { src.E = orig }()

	o := opts.defaults()
	// The span is closed via defer so every exit — error, completion, or
	// the callback stopping the sweep early — leaves the trace balanced.
	span := o.Telemetry.StartSpan("spice.sweep")
	defer span.End()

	var warm *OperatingPoint
	for i := 0; i < steps; i++ {
		v := start + (stop-start)*float64(i)/float64(steps-1)
		src.E = v
		local := o
		if warm != nil {
			local.Warm = warm
		}
		op, err := c.SolveDC(&local)
		if err != nil {
			return fmt.Errorf("spice: sweep %s=%.4f: %w", sourceName, v, err)
		}
		warm = op
		if !fn(v, op) {
			return nil
		}
	}
	return nil
}
