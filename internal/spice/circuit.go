// Package spice implements the transistor-level simulation substrate: a
// nonlinear DC circuit solver in the style of SPICE, built on modified
// nodal analysis (MNA) with Newton–Raphson iteration, gmin stepping and
// source stepping for robust convergence, plus DC sweeps with continuation.
//
// The paper evaluates every Monte Carlo sample with a transistor-level
// simulation of a 90 nm 6-T SRAM cell; this package is the from-scratch
// stand-in for that simulator (see DESIGN.md, substitution table). Device
// models live in mosfet.go; the SRAM netlists are assembled by package
// sram.
package spice

import (
	"fmt"
	"sort"

	"repro/internal/telemetry"
)

// Ground is the reserved name of the reference node (0 V).
const Ground = "0"

// Circuit is a flat netlist of devices connected at named nodes.
// The zero value is not usable; create circuits with NewCircuit.
type Circuit struct {
	nodeIndex  map[string]int // node name -> unknown index; Ground -> -1
	nodeNames  []string       // index -> name
	devices    []Device
	vsources   []*VSource // sources that own an MNA branch current
	capacitors []*Capacitor
	byName     map[string]Device

	// plan and ws cache the solver's symbolic structure (which unknowns
	// are actually solved for) and its numeric workspace. Both depend
	// only on the netlist topology, never on device values, and are
	// rebuilt lazily after any device or node is added. They make a
	// Circuit single-goroutine for solving, which has always been the
	// contract (sweeps mutate source values between solves).
	plan *solvePlan
	ws   *newtonWorkspace

	// telReg/telCache memoize the resolved telemetry metric handles for
	// the last registry seen, so sweep- and batch-heavy callers don't
	// pay ~10 locked map lookups per solve. solveTick drives the sampled
	// solve_seconds stopwatch (see startSolveClock). Purely
	// observational; covered by the same single-goroutine contract as
	// plan/ws.
	telReg    *telemetry.Registry
	telCache  dcTelemetry
	solveTick uint
}

// NewCircuit returns an empty circuit.
func NewCircuit() *Circuit {
	return &Circuit{
		nodeIndex: map[string]int{Ground: -1, "gnd": -1, "GND": -1},
		byName:    map[string]Device{},
	}
}

// Node interns a node name and returns its unknown index (-1 for ground).
func (c *Circuit) Node(name string) int {
	if idx, ok := c.nodeIndex[name]; ok {
		return idx
	}
	idx := len(c.nodeNames)
	c.nodeIndex[name] = idx
	c.nodeNames = append(c.nodeNames, name)
	c.plan = nil
	return idx
}

// NumNodes returns the number of non-ground nodes.
func (c *Circuit) NumNodes() int { return len(c.nodeNames) }

// NumUnknowns returns the MNA system size: nodes plus V-source branch
// currents.
func (c *Circuit) NumUnknowns() int { return len(c.nodeNames) + len(c.vsources) }

// NodeNames returns the non-ground node names in index order.
func (c *Circuit) NodeNames() []string {
	out := make([]string, len(c.nodeNames))
	copy(out, c.nodeNames)
	return out
}

// add registers a device under its name, panicking on duplicates (netlist
// construction bugs should fail fast).
func (c *Circuit) add(d Device) {
	name := d.Name()
	if _, dup := c.byName[name]; dup {
		panic(fmt.Sprintf("spice: duplicate device name %q", name))
	}
	c.byName[name] = d
	c.devices = append(c.devices, d)
	c.plan = nil
}

// AddResistor connects a linear resistor of the given ohms between nodes
// a and b.
func (c *Circuit) AddResistor(name, a, b string, ohms float64) *Resistor {
	if ohms <= 0 {
		panic(fmt.Sprintf("spice: resistor %q with non-positive resistance", name))
	}
	r := &Resistor{name: name, p: c.Node(a), m: c.Node(b), g: 1 / ohms}
	c.add(r)
	return r
}

// AddVSource connects an independent voltage source (plus terminal first).
// Its branch current becomes an MNA unknown.
func (c *Circuit) AddVSource(name, plus, minus string, volts float64) *VSource {
	v := &VSource{name: name, p: c.Node(plus), m: c.Node(minus), E: volts}
	v.branch = len(c.nodeNames) // provisional; fixed up in indexBranches
	c.vsources = append(c.vsources, v)
	c.add(v)
	return v
}

// AddISource connects an independent current source pushing the given
// current from plus, through itself, out of minus.
func (c *Circuit) AddISource(name, plus, minus string, amps float64) *ISource {
	i := &ISource{name: name, p: c.Node(plus), m: c.Node(minus), I: amps}
	c.add(i)
	return i
}

// AddMOSFET connects a MOSFET with terminals drain, gate, source, bulk and
// the given model card.
func (c *Circuit) AddMOSFET(name, d, g, s, b string, model *MOSModel) *MOSFET {
	if model == nil {
		panic("spice: nil MOSFET model")
	}
	m := &MOSFET{
		name: name, d: c.Node(d), g: c.Node(g), s: c.Node(s), b: c.Node(b),
		Model: model,
	}
	c.add(m)
	return m
}

// Device looks up a device by name.
func (c *Circuit) Device(name string) (Device, bool) {
	d, ok := c.byName[name]
	return d, ok
}

// VSourceByName returns the named voltage source, or an error naming the
// available sources — sweep configuration typos should be loud.
func (c *Circuit) VSourceByName(name string) (*VSource, error) {
	d, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("spice: no device %q (have %s)", name, c.deviceList())
	}
	v, ok := d.(*VSource)
	if !ok {
		return nil, fmt.Errorf("spice: device %q is not a voltage source", name)
	}
	return v, nil
}

func (c *Circuit) deviceList() string {
	names := make([]string, 0, len(c.byName))
	for n := range c.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// indexBranches assigns final MNA branch indices to the voltage sources.
// Node interning can continue after sources are added, so branch indices
// are (re)assigned immediately before each solve.
func (c *Circuit) indexBranches() {
	for i, v := range c.vsources {
		v.branch = len(c.nodeNames) + i
	}
}

// voltageAt reads a node voltage from the unknown vector (ground is 0).
func voltageAt(x []float64, idx int) float64 {
	if idx < 0 {
		return 0
	}
	return x[idx]
}
