package spice

import "repro/internal/linalg"

// This file holds the solver's cached symbolic analysis. Profiling the
// SRAM workloads showed most Newton time going into factoring Jacobian
// rows that are not really unknowns: every supply/wordline/bitline source
// in the cell has one terminal grounded, so its node voltage is known
// before the solve starts and its branch current is not needed to find
// the others. The plan identifies those pinned nodes once per topology;
// the Newton loop then factors only the genuinely free unknowns (2 of 10
// for the read cell, 1 of 11 for a forced transfer-curve point).
//
// The plan and workspace are cached on the Circuit and rebuilt lazily
// whenever a device or node is added. Solving a Circuit was always a
// single-goroutine affair (sweeps mutate source values in place); the
// cache relies on that existing contract.

// pinInfo records one eliminated voltage source: a source with exactly
// one grounded terminal pins its other node to sign*E, and its branch
// current drops out of the unknown set (its slot reads zero).
type pinInfo struct {
	vs   *VSource
	node int     // full-system index of the pinned node
	sign float64 // +1 when node is the plus terminal, -1 when minus
}

// solvePlan is the symbolic structure of one circuit topology: which
// unknowns the Newton iteration actually solves for.
type solvePlan struct {
	// free lists the full-system indices of the reduced unknowns: free
	// nodes first, then the branch currents of sources that could not be
	// eliminated. freeNodes is the length of the node prefix.
	free      []int
	freeNodes int
	pins      []pinInfo
	// active lists the devices that stamp at least one free row. The
	// others only write rows outside the reduced system (e.g. a MOSFET
	// whose drain and source both sit on pinned nodes), so the Newton
	// loop skips them without changing a single bit of the iteration; a
	// forced transfer-curve point needs only half the cell's transistor
	// evaluations this way.
	active []Device
}

// newtonWorkspace holds the per-circuit numeric scratch space so the
// Newton loop allocates nothing per iteration (or per solve).
type newtonWorkspace struct {
	f     []float64 // full-size residual
	neg   []float64 // reduced negated residual
	dx    []float64 // reduced Newton update
	jFull *linalg.Matrix
	jRed  *linalg.Matrix
	lu    linalg.LU
}

// buildPlan performs the symbolic analysis. A voltage source is
// eliminated when exactly one terminal is grounded and no earlier source
// already claimed its other node; everything else (floating sources,
// second sources on a claimed node, degenerate ground-to-ground sources)
// keeps its branch unknown and inherits the full MNA behavior — in the
// conflicting cases that is a structurally singular system, exactly as
// the unreduced formulation reported.
func (c *Circuit) buildPlan() *solvePlan {
	c.indexBranches()
	nn := c.NumNodes()
	p := &solvePlan{}
	claimed := make([]bool, nn)
	kept := make([]*VSource, 0, len(c.vsources))
	for _, v := range c.vsources {
		var node int
		var sign float64
		switch {
		case v.p >= 0 && v.m < 0:
			node, sign = v.p, 1
		case v.m >= 0 && v.p < 0:
			node, sign = v.m, -1
		default:
			kept = append(kept, v)
			continue
		}
		if claimed[node] {
			kept = append(kept, v)
			continue
		}
		claimed[node] = true
		p.pins = append(p.pins, pinInfo{vs: v, node: node, sign: sign})
	}
	for i := 0; i < nn; i++ {
		if !claimed[i] {
			p.free = append(p.free, i)
		}
	}
	p.freeNodes = len(p.free)
	for _, v := range kept {
		p.free = append(p.free, v.branch)
	}
	isFree := make([]bool, c.NumUnknowns())
	for _, i := range p.free {
		isFree[i] = true
	}
	for _, d := range c.devices {
		if stampsFreeRow(d, isFree) {
			p.active = append(p.active, d)
		}
	}
	return p
}

// stampsFreeRow reports whether the device writes any residual row in
// the reduced unknown set. The row sets mirror each Stamp method:
// current-carrying terminals for two-terminal devices and MOSFETs
// (drain/source; the gate and bulk draw no current), plus the branch row
// for sources. Unknown device types are conservatively kept active.
func stampsFreeRow(d Device, isFree []bool) bool {
	hit := func(idx int) bool { return idx >= 0 && isFree[idx] }
	switch t := d.(type) {
	case *MOSFET:
		return hit(t.d) || hit(t.s)
	case *Resistor:
		return hit(t.p) || hit(t.m)
	case *Capacitor:
		return hit(t.p) || hit(t.m)
	case *ISource:
		return hit(t.p) || hit(t.m)
	case *VSource:
		return hit(t.p) || hit(t.m) || hit(t.branch)
	default:
		return true
	}
}

// Stamp implements Device. The branch current x[branch] flows from the
// plus terminal through the source to the minus terminal. Only sources
// the plan keeps stamp in a solve. It sits here, not in device.go, to
// keep newton and the MOSFET kernel at their 128-byte linker offsets.
func (v *VSource) Stamp(x []float64, f []float64, j *linalg.Matrix) {
	i := x[v.branch]
	if v.p >= 0 {
		f[v.p] += i
		j.Add(v.p, v.branch, 1)
	}
	if v.m >= 0 {
		f[v.m] -= i
		j.Add(v.m, v.branch, -1)
	}
	// Branch equation: V(p) − V(m) − E = 0.
	f[v.branch] += voltageAt(x, v.p) - voltageAt(x, v.m) - v.E
	if v.p >= 0 {
		j.Add(v.branch, v.p, 1)
	}
	if v.m >= 0 {
		j.Add(v.branch, v.m, -1)
	}
}

// solverState returns the current plan and a workspace sized for it,
// rebuilding both after any topology change.
func (c *Circuit) solverState() (*solvePlan, *newtonWorkspace) {
	if c.plan == nil {
		c.plan = c.buildPlan()
		c.ws = nil
	}
	if c.ws == nil {
		n := c.NumUnknowns()
		r := len(c.plan.free)
		c.ws = &newtonWorkspace{
			f:     make([]float64, n),
			neg:   make([]float64, r),
			dx:    make([]float64, r),
			jFull: linalg.NewMatrix(n, n),
			jRed:  linalg.NewMatrix(r, r),
		}
	}
	return c.plan, c.ws
}
