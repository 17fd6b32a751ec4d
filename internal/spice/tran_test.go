package spice

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

// RC discharge: V(t) = V0·e^{−t/RC}, the canonical transient check.
func TestTranRCDischarge(t *testing.T) {
	const (
		r  = 1e3
		cf = 1e-9
		v0 = 1.0
	)
	tau := r * cf
	c := NewCircuit()
	c.AddResistor("r", "n", "0", r)
	c.AddCapacitor("c", "n", "0", cf)
	var worst float64
	err := c.SolveTran(TranOptions{
		Stop: 3 * tau, Step: tau / 200,
		InitialConditions: map[string]float64{"n": v0},
	}, func(p TranPoint) bool {
		want := v0 * math.Exp(-p.T/tau)
		if d := math.Abs(p.OP.Voltage("n") - want); d > worst {
			worst = d
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if worst > 2e-3 {
		t.Fatalf("RC discharge worst error %v", worst)
	}
}

// RC charging through a stepped source reaches (1−e^{−t/RC})·V.
func TestTranRCCharge(t *testing.T) {
	const (
		r  = 2e3
		cf = 0.5e-9
	)
	tau := r * cf
	c := NewCircuit()
	src := c.AddVSource("vin", "in", "0", 0)
	src.Waveform = StepWaveform(0, 1, 0, tau/100)
	c.AddResistor("r", "in", "n", r)
	c.AddCapacitor("c", "n", "0", cf)
	var last float64
	err := c.SolveTran(TranOptions{Stop: 5 * tau, Step: tau / 100}, func(p TranPoint) bool {
		last = p.OP.Voltage("n")
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Exp(-5)
	if math.Abs(last-want) > 0.01 {
		t.Fatalf("RC charge endpoint %v, want %v", last, want)
	}
}

func TestTranValidation(t *testing.T) {
	c := NewCircuit()
	c.AddResistor("r", "n", "0", 1e3)
	c.AddCapacitor("c", "n", "0", 1e-9)
	if err := c.SolveTran(TranOptions{Stop: 0, Step: 1e-9}, nil); err == nil {
		t.Fatal("expected Stop validation error")
	}
	if err := c.SolveTran(TranOptions{Stop: 1e-9, Step: 1e-6}, nil); err == nil {
		t.Fatal("expected Step validation error")
	}
	if err := c.SolveTran(TranOptions{
		Stop: 1e-8, Step: 1e-9,
		InitialConditions: map[string]float64{"nope": 1},
	}, func(TranPoint) bool { return true }); err == nil {
		t.Fatal("expected unknown-node error")
	}
	if c.AddCapacitor("c2", "n", "0", 1e-12) == nil {
		t.Fatal("AddCapacitor returned nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive capacitance")
		}
	}()
	c.AddCapacitor("bad", "n", "0", -1)
}

func TestTranEarlyStop(t *testing.T) {
	c := NewCircuit()
	c.AddResistor("r", "n", "0", 1e3)
	c.AddCapacitor("c", "n", "0", 1e-9)
	n := 0
	err := c.SolveTran(TranOptions{Stop: 1e-6, Step: 1e-8}, func(p TranPoint) bool {
		n++
		return n < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("early stop visited %d points", n)
	}
}

// A CMOS inverter driving a load capacitor must produce a finite,
// positive propagation delay that grows with the load.
func TestTranInverterDelayGrowsWithLoad(t *testing.T) {
	delay := func(load float64) float64 {
		c := NewCircuit()
		c.AddVSource("vdd", "vdd", "0", 1.0)
		vin := c.AddVSource("vin", "in", "0", 0)
		vin.Waveform = StepWaveform(0, 1, 1e-10, 2e-11)
		c.AddMOSFET("mn", "out", "in", "0", "0", nmosModel())
		c.AddMOSFET("mp", "out", "in", "vdd", "vdd", pmosModel())
		c.AddCapacitor("cl", "out", "0", load)
		var crossed float64 = -1
		err := c.SolveTran(TranOptions{Stop: 3e-9, Step: 5e-12}, func(p TranPoint) bool {
			if crossed < 0 && p.T > 1e-10 && p.OP.Voltage("out") < 0.5 {
				crossed = p.T
				return false
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if crossed < 0 {
			t.Fatal("output never crossed VDD/2")
		}
		return crossed
	}
	d1 := delay(1e-15)
	d2 := delay(5e-15)
	if d2 <= d1 {
		t.Fatalf("delay should grow with load: %v vs %v", d1, d2)
	}
}

// Waveform helper.
func TestWaveforms(t *testing.T) {
	s := StepWaveform(0, 1, 1e-9, 1e-10)
	if s(0) != 0 || s(2e-9) != 1 {
		t.Fatal("step endpoints wrong")
	}
	if mid := s(1.05e-9); mid <= 0 || mid >= 1 {
		t.Fatalf("step ramp wrong: %v", mid)
	}
}

// DC analyses must be unaffected by capacitors (open circuit).
func TestCapacitorOpenInDC(t *testing.T) {
	c := NewCircuit()
	c.AddVSource("v", "a", "0", 2)
	c.AddResistor("r1", "a", "b", 1e3)
	c.AddResistor("r2", "b", "0", 1e3)
	c.AddCapacitor("c", "b", "0", 1e-9)
	op, err := c.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(op.Voltage("b")-1) > 1e-6 {
		t.Fatalf("capacitor loaded the DC divider: %v", op.Voltage("b"))
	}
}

// Charge conservation: with no resistive path, a capacitor divider holds
// its node voltage through the transient.
func TestTranFloatingCapHolds(t *testing.T) {
	c := NewCircuit()
	c.AddCapacitor("c1", "n", "0", 1e-12)
	// gmin provides the only leakage; over a short window the droop is
	// negligible.
	err := c.SolveTran(TranOptions{
		Stop: 1e-9, Step: 1e-11,
		InitialConditions: map[string]float64{"n": 0.8},
	}, func(p TranPoint) bool {
		if math.Abs(p.OP.Voltage("n")-0.8) > 1e-3 {
			t.Fatalf("floating cap drooped to %v at t=%v", p.OP.Voltage("n"), p.T)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPinnedSolveReusesPlan: the pinned t = 0 solve holds its nodes by
// a Newton term, so a transient with initial conditions changes neither
// the device list nor the cached plan during the solve, rebuilds neither
// the plan nor the Newton workspace, and a second run's waveform is bit
// for bit the first's. The pins sit on a free node, on a source-driven
// node (which stamps no free row), and on both.
func TestPinnedSolveReusesPlan(t *testing.T) {
	for _, ic := range []map[string]float64{{"n": 1}, {"in": 1}, {"n": 1, "in": 1}} {
		c := NewCircuit()
		c.AddVSource("vin", "in", "0", 0.3)
		c.AddResistor("r", "in", "n", 1e3)
		c.AddCapacitor("c", "n", "0", 1e-9)
		probe := &sizeProbe{c: c}
		c.add(probe)
		run := func() []float64 {
			t.Helper()
			var vs []float64
			err := c.SolveTran(TranOptions{Stop: 1e-6, Step: 1e-7, InitialConditions: ic}, func(p TranPoint) bool {
				vs = append(vs, p.OP.Voltage("n"), p.OP.Voltage("in"))
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			return vs
		}
		first := run()
		plan, ws, active := c.plan, c.ws, len(c.plan.active)
		again := run()
		if c.plan != plan || c.ws != ws || len(c.plan.active) != active {
			t.Fatalf("ic %v: plan or workspace rebuilt, or active list changed (%d → %d devices)", ic, active, len(c.plan.active))
		}
		if len(probe.seen) == 0 {
			t.Fatalf("ic %v: the probe device never stamped", ic)
		}
		for _, n := range probe.seen {
			if n != [2]int{len(c.devices), active} {
				t.Fatalf("ic %v: a stamp saw %d devices and %d active, want %d and %d", ic, n[0], n[1], len(c.devices), active)
			}
		}
		for i := range first {
			if math.Float64bits(first[i]) != math.Float64bits(again[i]) {
				t.Fatalf("ic %v: value %d is %v on a fresh circuit, %v on the reused one", ic, i, first[i], again[i])
			}
		}
	}
}

// sizeProbe is a device that stamps nothing and records, at every
// stamp, the length of its circuit's device list and of its cached
// plan's active list. An unknown device type is always active.
type sizeProbe struct {
	c    *Circuit
	seen [][2]int
}

func (p *sizeProbe) Name() string { return "probe" }

func (p *sizeProbe) Stamp(x []float64, f []float64, j *linalg.Matrix) {
	p.seen = append(p.seen, [2]int{len(p.c.devices), len(p.c.plan.active)})
}

// TestInitialConditionsLeaveCallerGuess: SolveTran holds its initial
// conditions in its own options, never in the caller's InitialGuess map.
func TestInitialConditionsLeaveCallerGuess(t *testing.T) {
	c := NewCircuit()
	c.AddResistor("r", "n", "0", 1e3)
	c.AddCapacitor("c", "n", "0", 1e-9)
	g := map[string]float64{}
	err := c.SolveTran(TranOptions{
		Stop: 1e-6, Step: 1e-7,
		DC:                &DCOptions{InitialGuess: g},
		InitialConditions: map[string]float64{"n": 0.7},
	}, func(TranPoint) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 0 {
		t.Fatalf("the caller's initial guess became %v, want it empty", g)
	}
}
