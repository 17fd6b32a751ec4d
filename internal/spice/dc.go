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
	// MaxIter bounds Newton iterations per attempt (default 150). The
	// cold escalation's first plain Newton also stops early once it has
	// gone 8 iterations without lowering its best max-|KCL| residual;
	// every gmin stage, the final solve at the gmin floor and every
	// source step keep the full MaxIter budget.
	MaxIter int
	// InitialGuess seeds node voltages by name. Nodes not listed start at
	// 0 V. This is how callers select a bistable cell's state.
	InitialGuess map[string]float64
	// Telemetry, when non-nil, records per-solve metrics (strategy
	// fallbacks, Newton iterations, residuals, wall time) into the
	// "spice" scope and emits an event for each failed solve. Nil is a
	// no-op: the solve path pays only a nil check.
	Telemetry *telemetry.Registry

	// warm, if non-nil, seeds the cold path's unknown vector from the
	// previous solution of the same circuit (a sweep's previous point, a
	// transient's previous step); it overrides InitialGuess.
	warm *OperatingPoint
	// icPins holds nodes at their initial conditions (a transient's
	// t = 0 solve); see solveWithPinnedNodes.
	icPins []nodePin
}

// Newton's fixed tolerances. A solve converges once its damped voltage
// update is below vTol (V) and its max-|KCL| residual below iTol (A;
// node currents in the SRAM cell are µA-scale); maxStep (V) limits the
// per-iteration voltage update, and gminFloor (S) is the shunt
// conductance from every free node to ground that each solve ends with.
const (
	vTol      = 1e-9
	iTol      = 1e-9
	maxStep   = 0.4
	gminFloor = 1e-12
)

func (o *DCOptions) defaults() DCOptions {
	d := DCOptions{MaxIter: 150}
	if o == nil {
		return d
	}
	out := *o
	if out.MaxIter <= 0 {
		out.MaxIter = d.MaxIter
	}
	return out
}

// SolveDC computes the DC operating point. It first tries plain damped
// Newton from the initial guess; on failure it falls back to gmin stepping
// and then source stepping, mirroring production SPICE practice. The
// plain attempt gives up early once it stalls (8 iterations without a
// lower residual), since the ladder behind it is what rescues such
// solves; the ladder's own attempts keep the full MaxIter budget.
// The returned operating point records which strategy converged
// (Strategy), the Newton iterations consumed and the residual at
// convergence. It is SolveDCFrom without a warm start.
func (c *Circuit) SolveDC(opts *DCOptions) (*OperatingPoint, error) {
	return c.SolveDCFrom(nil, nil, opts)
}

// warmMaxIter is the Newton budget for a warm-start attempt. Warm
// starts that are going to converge do so in a handful of iterations;
// anything still wandering after this budget is cheaper to restart cold
// than to keep polishing. A warm attempt that stalls (8 iterations
// without a lower residual) stops before the budget runs out.
const warmMaxIter = 40

// stallWindow is how many consecutive Newton iterations an attempt may
// spend without lowering its best max-|KCL| residual before it gives up.
// It applies only to the warm attempt and the cold escalation's first
// plain Newton, the two attempts whose failure just starts the next
// strategy: a converging attempt lowers its residual almost every
// iteration, while one oscillating between basins (a cell that flips
// during the read) would otherwise burn its whole budget. The gmin and
// source-stepping ladder is the rescue path and never stalls out.
const stallWindow = 8

// SolveDCFrom computes the DC operating point, first attempting damped
// Newton from the anchor solution within warmMaxIter iterations. A
// converged warm attempt must also pass guard (when non-nil) — guards
// reject warm solutions that left the intended basin of a bistable
// circuit. On any warm failure the solve falls back to SolveDC's cold
// escalation, the returned operating point counts the warm attempt's
// iterations as well, and the fallback is recorded in the "spice"
// telemetry scope (warm_fallback_total); warm successes record
// warm_hit_total and report StrategyWarm.
//
// A nil anchor (or one sized for a different topology) skips straight to
// the cold escalation without counting a fallback: the caller had no
// warm start to offer, which is different from offering one that failed.
//
// Telemetry sees every call as one solve, whichever attempts it took:
// one solves_total or unconverged_total count, one solve_seconds (when
// timed) and newton_iterations observation, and a fallback_gmin_total or
// fallback_source_total count when gmin or source stepping converged.
// Only a failed solve emits an event ("spice.unconverged"). A solve
// opens no span; the trace's stage spans slice these counters.
func (c *Circuit) SolveDCFrom(anchor *OperatingPoint, guard func(*OperatingPoint) bool, opts *DCOptions) (*OperatingPoint, error) {
	return c.solveDCFrom(anchor, guard, opts, nil, nil)
}

// solveDCFrom is SolveDCFrom whose cold escalation solves in x and
// returns its solution in into (see solveDC).
func (c *Circuit) solveDCFrom(anchor *OperatingPoint, guard func(*OperatingPoint) bool, opts *DCOptions, x []float64, into *OperatingPoint) (*OperatingPoint, error) {
	o := opts.defaults()
	tel := c.dcTel(o.Telemetry)
	sw := c.startSolveClock(tel, o.Telemetry)
	var op *OperatingPoint
	var err error
	warmIters := 0
	if anchor != nil && len(anchor.x) == c.NumUnknowns() {
		if op, warmIters = c.warmDC(anchor, guard, o); op == nil {
			tel.warmFalls.Inc()
		}
	}
	if op == nil {
		if op, err = c.solveDC(&o, x, into); err == nil {
			op.iters += warmIters
		}
	}
	sw.Stop()
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
	case StrategyWarm:
		tel.warmHits.Inc()
	case StrategyGmin:
		tel.gminFalls.Inc()
	case StrategySource:
		tel.sourceFalls.Inc()
	}
	return op, nil
}

// warmDC is SolveDCFrom's warm attempt: damped Newton from the anchor
// within warmMaxIter iterations. It returns the accepted operating
// point, or nil when Newton failed or guard rejected the result, and the
// iterations spent either way.
func (c *Circuit) warmDC(anchor *OperatingPoint, guard func(*OperatingPoint) bool, o DCOptions) (*OperatingPoint, int) {
	o.MaxIter = warmMaxIter
	c.indexBranches()
	x := linalg.CopyVec(anchor.x)
	st, err := c.newton(x, &o, gminFloor, 1.0, stallWindow)
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
// defaults applied. Only the first plain Newton stops on a stall; each
// gmin stage, the final solve at gminFloor and each source step run to
// convergence or to o.MaxIter. The plain Newton solves in x, which it
// overwrites, and the solution is returned in op, so a caller that
// solves over and over (a transient's steps) reuses both; a nil x or op
// is allocated. x must not alias o.warm's vector.
func (c *Circuit) solveDC(o *DCOptions, x []float64, op *OperatingPoint) (*OperatingPoint, error) {
	c.indexBranches()
	n := c.NumUnknowns()
	if x == nil {
		x = make([]float64, n)
	}
	if op == nil {
		op = new(OperatingPoint)
	}
	if o.warm != nil {
		copy(x, o.warm.x)
	} else {
		clear(x)
		for name, v := range o.InitialGuess {
			idx, ok := c.nodeIndex[name]
			if !ok {
				return nil, fmt.Errorf("spice: initial guess for unknown node %q", name)
			}
			if idx >= 0 {
				x[idx] = v
			}
		}
		for _, p := range o.icPins {
			x[p.idx] = p.v
		}
	}

	totalIters := 0
	if st, err := c.newton(x, o, gminFloor, 1.0, stallWindow); err == nil {
		*op = OperatingPoint{circuit: c, x: x, strategy: StrategyNewton,
			iters: st.iters, residual: st.residual}
		return op, nil
	} else {
		totalIters += st.iters
	}

	// Gmin stepping: solve with a heavy shunt, then relax it.
	xg := linalg.CopyVec(x)
	ok := true
	for gmin := 1e-2; gmin >= gminFloor; gmin /= 10 {
		st, err := c.newton(xg, o, gmin, 1.0, 0)
		totalIters += st.iters
		if err != nil {
			ok = false
			break
		}
	}
	if ok {
		st, err := c.newton(xg, o, gminFloor, 1.0, 0)
		totalIters += st.iters
		if err == nil {
			*op = OperatingPoint{circuit: c, x: xg, strategy: StrategyGmin,
				iters: totalIters, residual: st.residual}
			return op, nil
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
		st, err := c.newton(trial, o, gminFloor, next, 0)
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
	*op = OperatingPoint{circuit: c, x: xs, strategy: StrategySource,
		iters: totalIters, residual: residual}
	return op, nil
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
// their branch currents held at zero, which shrinks the factored system
// from NumUnknowns to a handful of genuinely nonlinear voltages. The
// initial-condition pins in o.icPins stamp their conductances after the
// devices. A positive stall gives up with ErrNoConvergence once that many
// consecutive iterations have not lowered the best residual so far; the
// convergence test runs first, so a converging iterate is never cut off.
func (c *Circuit) newton(x []float64, o *DCOptions, gmin, srcScale float64, stall int) (newtonStats, error) {
	plan, ws := c.solverState()
	f, jFull, jRed := ws.f, ws.jFull, ws.jRed
	neg, dx := ws.neg, ws.dx
	pins := o.icPins

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
	// hold their branch currents at zero. Warm starts may have seeded
	// nonzero branch currents; they are not unknowns here.
	for _, pin := range plan.pins {
		x[pin.node] = pin.sign * pin.vs.E
		x[pin.vs.branch] = 0
	}

	best, since := math.Inf(1), 0
	for iter := 0; iter < o.MaxIter; iter++ {
		for i := range f {
			f[i] = 0
		}
		jFull.Zero()
		for _, d := range plan.active {
			d.Stamp(x, f, jFull)
		}
		for _, p := range pins {
			f[p.idx] += icConductance * (x[p.idx] - p.v)
			jFull.Add(p.idx, p.idx, icConductance)
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
		if maxDx > maxStep {
			scale = maxStep / maxDx
		}
		for a, ia := range plan.free {
			x[ia] += scale * dx[a]
		}
		if maxDx*scale < vTol && maxRes < iTol {
			return newtonStats{iters: iter + 1, residual: maxRes}, nil
		}
		for _, ia := range plan.free {
			if math.IsNaN(x[ia]) || math.IsInf(x[ia], 0) {
				return newtonStats{iters: iter + 1}, fmt.Errorf("spice: iterate diverged at iteration %d", iter)
			}
		}
		if stall > 0 {
			if maxRes < best {
				best, since = maxRes, 0
			} else if since++; since >= stall {
				return newtonStats{iters: iter + 1}, ErrNoConvergence
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
	var warm *OperatingPoint
	for i := 0; i < steps; i++ {
		v := start + (stop-start)*float64(i)/float64(steps-1)
		src.E = v
		local := o
		local.warm = warm
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
