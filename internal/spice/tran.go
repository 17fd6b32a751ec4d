package spice

import (
	"errors"
	"fmt"

	"repro/internal/linalg"
)

// This file adds transient analysis to the DC engine: initial
// conditions for the t = 0 solve, capacitors with backward-Euler
// companion models, time-varying sources, and a fixed-step integrator.
// The SRAM package uses it for the access time (bitline discharge), the
// dynamic metric that motivates the paper's read-current experiment.

// solveWithPinnedNodes computes a DC solution with the given nodes held
// at fixed voltages, each through an icConductance to its voltage (a
// Norton source that adds no unknown, so the circuit and its cached plan
// stay as they are). Only its own copy of dc carries the pins, so the
// returned operating point keeps the pinned values at the pinned nodes
// and the release happens on the first transient step.
func (c *Circuit) solveWithPinnedNodes(dc *DCOptions, pins map[string]float64) (*OperatingPoint, error) {
	local := *dc
	local.icPins = make([]nodePin, 0, len(pins))
	for name, v := range pins {
		idx, ok := c.nodeIndex[name]
		if !ok {
			return nil, fmt.Errorf("spice: initial condition for unknown node %q", name)
		}
		if idx >= 0 {
			local.icPins = append(local.icPins, nodePin{idx: idx, v: v})
		}
	}
	return c.SolveDC(&local)
}

// icConductance is the conductance (S) that holds a node at its initial
// condition during the t = 0 solve.
const icConductance = 1e6

// nodePin holds one node at a voltage during an initial-condition solve:
// solveDC seeds the node with v, and newton adds icConductance·(x − v)
// to its residual.
type nodePin struct {
	idx int
	v   float64
}

// Capacitor is a linear two-terminal capacitor. During DC analysis it is
// an open circuit; during transient analysis the integrator replaces it
// with its backward-Euler companion model, a conductance C/h beside a
// history current C/h·v(t−h).
type Capacitor struct {
	name string
	p, m int
	C    float64

	// Integrator state (set between steps by SolveTran).
	active bool
	geq    float64 // companion conductance
	ieq    float64 // companion history current (flows p → m)
}

// AddCapacitor connects a capacitor of the given farads between a and b.
func (c *Circuit) AddCapacitor(name, a, b string, farads float64) *Capacitor {
	if farads <= 0 {
		panic(fmt.Sprintf("spice: capacitor %q with non-positive capacitance", name))
	}
	cap := &Capacitor{name: name, p: c.Node(a), m: c.Node(b), C: farads}
	c.add(cap)
	c.capacitors = append(c.capacitors, cap)
	return cap
}

// Name returns the device name.
func (c *Capacitor) Name() string { return c.name }

// Stamp implements Device. In DC mode the capacitor contributes nothing
// (open circuit); in transient mode it stamps its companion model.
func (c *Capacitor) Stamp(x []float64, f []float64, j *linalg.Matrix) {
	if !c.active {
		return
	}
	v := voltageAt(x, c.p) - voltageAt(x, c.m)
	i := c.geq*v - c.ieq
	if c.p >= 0 {
		f[c.p] += i
		j.Add(c.p, c.p, c.geq)
		if c.m >= 0 {
			j.Add(c.p, c.m, -c.geq)
		}
	}
	if c.m >= 0 {
		f[c.m] -= i
		j.Add(c.m, c.m, c.geq)
		if c.p >= 0 {
			j.Add(c.m, c.p, -c.geq)
		}
	}
}

// TranOptions configures a transient run.
type TranOptions struct {
	// Stop is the end time in seconds (required).
	Stop float64
	// Step is the fixed time step in seconds (required).
	Step float64
	// DC tunes the per-step Newton solves; its InitialGuess seeds the
	// operating point at t = 0.
	DC *DCOptions
	// InitialConditions force node voltages at t = 0 (".ic"): the
	// circuit starts from a DC solve with these nodes pinned, then
	// releases them.
	InitialConditions map[string]float64
	// CoarseStep/CoarseUntil enable a two-rate (adaptive) schedule: when
	// both are positive and CoarseStep > Step, the integrator walks from
	// t = 0 to (approximately) CoarseUntil with CoarseStep, then
	// finishes with Step. The intended use is a known-quiescent lead-in
	// — e.g. an SRAM access transient before the wordline edge — where
	// nothing moves and fine resolution is wasted. The coarse segment
	// rounds to whole coarse steps, so set CoarseUntil at or before the
	// first waveform breakpoint.
	CoarseStep  float64
	CoarseUntil float64
}

// TranPoint is the solution at one time point. SolveTran reuses the
// steps' operating point, so OP is valid only until fn returns.
type TranPoint struct {
	T  float64
	OP *OperatingPoint
}

// SolveTran runs a fixed-step backward-Euler transient analysis,
// calling fn after every accepted step (including t = 0); the point's OP
// is valid until fn returns. fn returning false stops early without
// error. Sources with a Waveform follow it; others hold their DC value.
func (c *Circuit) SolveTran(opts TranOptions, fn func(TranPoint) bool) error {
	if opts.Stop <= 0 || opts.Step <= 0 {
		return errors.New("spice: transient needs positive Stop and Step")
	}
	if opts.Step > opts.Stop {
		return errors.New("spice: transient step exceeds stop time")
	}

	// t = 0 operating point, with any initial conditions held by stiff
	// conductances for this one solve; the step solves run without them.
	dc := opts.DC.defaults()
	for _, src := range c.vsources {
		if src.Waveform != nil {
			src.E = src.Waveform(0)
		}
	}
	var op *OperatingPoint
	var err error
	if len(opts.InitialConditions) > 0 {
		op, err = c.solveWithPinnedNodes(&dc, opts.InitialConditions)
	} else {
		op, err = c.SolveDC(&dc)
	}
	if err != nil {
		return fmt.Errorf("spice: transient t=0 solve: %w", err)
	}
	if !fn(TranPoint{T: 0, OP: op}) {
		return nil
	}

	defer func() {
		for _, cap := range c.capacitors {
			cap.active = false
		}
	}()

	// The step schedule: one fixed-step segment by default; a coarse
	// lead-in segment followed by the fine segment when the two-rate
	// options are set. Companion models are rebuilt per step from the
	// segment's step size and the previous step's voltages, so a rate
	// change needs no special handling.
	type segment struct {
		t0    float64 // segment start time
		h     float64 // step size
		steps int
	}
	segs := []segment{{t0: 0, h: opts.Step, steps: int(opts.Stop/opts.Step + 0.5)}}
	if opts.CoarseStep > opts.Step && opts.CoarseUntil > 0 && opts.CoarseUntil < opts.Stop {
		coarse := int(opts.CoarseUntil / opts.CoarseStep)
		if coarse >= 1 {
			t1 := float64(coarse) * opts.CoarseStep
			fine := int((opts.Stop-t1)/opts.Step + 0.5)
			segs = []segment{
				{t0: 0, h: opts.CoarseStep, steps: coarse},
				{t0: t1, h: opts.Step, steps: fine},
			}
		}
	}

	// Each step solves in bufs[0], into the one step operating point,
	// and then swaps the buffers, so a step never solves in the buffer
	// that holds its warm start.
	bufs := [2][]float64{make([]float64, len(op.x)), make([]float64, len(op.x))}
	stepOP := new(OperatingPoint)
	for _, seg := range segs {
		h := seg.h
		for n := 1; n <= seg.steps; n++ {
			t := seg.t0 + float64(n)*h
			for _, src := range c.vsources {
				if src.Waveform != nil {
					src.E = src.Waveform(t)
				}
			}
			// Each capacitor's history is its voltage at the previous
			// step, which op still holds.
			for _, cap := range c.capacitors {
				cap.active = true
				cap.geq = cap.C / h
				cap.ieq = cap.geq * (voltageAt(op.x, cap.p) - voltageAt(op.x, cap.m))
			}
			local := dc
			local.warm = op
			next, err := c.solveDCFrom(nil, nil, &local, bufs[0], stepOP)
			if err != nil {
				return fmt.Errorf("spice: transient step at t=%.3g: %w", t, err)
			}
			op = next
			bufs[0], bufs[1] = bufs[1], bufs[0]
			if !fn(TranPoint{T: t, OP: op}) {
				return nil
			}
		}
	}
	return nil
}

// Current returns the drain current at a solved operating point. Like
// Eval it updates the softplus memo, so it must not run on one MOSFET
// from two goroutines at once. It sits here, not in mosfet.go, for the
// layout reason given at VSource.Stamp.
func (t *MOSFET) Current(op *OperatingPoint) float64 {
	id, _, _, _, _ := t.Eval(
		voltageAt(op.x, t.d), voltageAt(op.x, t.g),
		voltageAt(op.x, t.s), voltageAt(op.x, t.b))
	return id
}
