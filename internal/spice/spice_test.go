package spice

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

func nmosModel() *MOSModel {
	return &MOSModel{Type: NMOS, VT0: 0.35, KP: 200e-6, W: 200e-9, L: 100e-9, Lambda: 0.08, N: 1.3}
}

func pmosModel() *MOSModel {
	return &MOSModel{Type: PMOS, VT0: 0.35, KP: 80e-6, W: 200e-9, L: 100e-9, Lambda: 0.10, N: 1.35}
}

func TestResistorDivider(t *testing.T) {
	c := NewCircuit()
	c.AddVSource("vin", "in", "0", 3.0)
	c.AddResistor("r1", "in", "mid", 1000)
	c.AddResistor("r2", "mid", "0", 2000)
	op, err := c.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Tolerance reflects the gmin shunt (1e-12 S) loading the 2 kΩ node.
	if math.Abs(op.Voltage("mid")-2.0) > 1e-7 {
		t.Fatalf("divider mid = %v, want 2.0", op.Voltage("mid"))
	}
	// Source current = −3/3000 through the branch (flows p→m inside).
	src, _ := c.VSourceByName("vin")
	if math.Abs(src.Current(op)+1e-3) > 1e-8 {
		t.Fatalf("source current = %v, want -1e-3", src.Current(op))
	}
}

func TestCurrentSourceIntoResistor(t *testing.T) {
	c := NewCircuit()
	c.AddISource("i1", "0", "n", 1e-3) // pushes 1 mA out of node n... into n
	c.AddResistor("r", "n", "0", 500)
	op, err := c.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(op.Voltage("n")-0.5) > 1e-9 {
		t.Fatalf("node = %v, want 0.5", op.Voltage("n"))
	}
}

func TestGroundAliases(t *testing.T) {
	c := NewCircuit()
	c.AddVSource("v", "a", "gnd", 1)
	c.AddResistor("r", "a", "GND", 100)
	op, err := c.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(op.Voltage("a")-1) > 1e-9 {
		t.Fatal("gnd alias broken")
	}
}

func TestDuplicateDevicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate device name")
		}
	}()
	c := NewCircuit()
	c.AddResistor("r", "a", "0", 1)
	c.AddResistor("r", "b", "0", 1)
}

func TestBadLookups(t *testing.T) {
	c := NewCircuit()
	c.AddResistor("r", "a", "0", 1)
	if _, err := c.VSourceByName("nope"); err == nil {
		t.Fatal("expected error for missing source")
	}
	if _, err := c.VSourceByName("r"); err == nil {
		t.Fatal("expected error for wrong device kind")
	}
	if _, err := c.MOSFETByName("r"); err == nil {
		t.Fatal("expected error for wrong device kind")
	}
}

// A diode-connected NMOS from a current source: solved Vgs must satisfy the
// model's own I-V relation.
func TestNMOSDiodeConnected(t *testing.T) {
	c := NewCircuit()
	m := c.AddMOSFET("m1", "d", "d", "0", "0", nmosModel())
	c.AddISource("ibias", "0", "d", 10e-6) // push 10 µA into the drain
	op, err := c.SolveDC(&DCOptions{InitialGuess: map[string]float64{"d": 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	v := op.Voltage("d")
	if v < 0.2 || v > 1.2 {
		t.Fatalf("implausible diode voltage %v", v)
	}
	id, _, _, _, _ := m.Eval(v, v, 0, 0)
	if math.Abs(id-10e-6)/10e-6 > 1e-6 {
		t.Fatalf("device current %v does not match bias 10µA", id)
	}
}

// Saturation current should follow the square law ≈ β/(2N)·Vov² well above
// threshold.
func TestNMOSSquareLawRegion(t *testing.T) {
	m := &MOSFET{d: -1, g: -1, s: -1, b: -1, Model: nmosModel()}
	vgs, vds := 0.9, 1.0 // strongly saturated
	id, _, _, _, _ := m.Eval(vds, vgs, 0, 0)
	mod := m.Model
	vov := vgs - mod.VT0
	want := mod.Beta() / (2 * mod.slope()) * vov * vov * (1 + mod.Lambda*vds)
	if math.Abs(id-want)/want > 0.05 {
		t.Fatalf("saturation current %v, square law %v", id, want)
	}
}

// Subthreshold current must be exponential in Vgs with slope factor N.
func TestNMOSSubthresholdSlope(t *testing.T) {
	m := &MOSFET{d: -1, g: -1, s: -1, b: -1, Model: nmosModel()}
	// Deep subthreshold (Vgs well below VT0) so the EKV interpolation has
	// reached its exponential asymptote.
	i1, _, _, _, _ := m.Eval(1.0, 0.00, 0, 0)
	i2, _, _, _, _ := m.Eval(1.0, 0.10, 0, 0)
	gotSlope := 0.1 / math.Log(i2/i1) // V per e-fold
	wantSlope := m.Model.slope() * m.Model.vt()
	if math.Abs(gotSlope-wantSlope)/wantSlope > 0.05 {
		t.Fatalf("subthreshold slope %v V/e-fold, want %v", gotSlope, wantSlope)
	}
}

// Raising DeltaVth must reduce current at fixed bias (monotone sensitivity
// used everywhere by the samplers).
func TestDeltaVthMonotone(t *testing.T) {
	m := &MOSFET{d: -1, g: -1, s: -1, b: -1, Model: nmosModel()}
	prev := math.Inf(1)
	for dv := -0.1; dv <= 0.1; dv += 0.02 {
		m.DeltaVth = dv
		id, _, _, _, _ := m.Eval(1.0, 0.6, 0, 0)
		if id >= prev {
			t.Fatalf("current not decreasing in DeltaVth at %v", dv)
		}
		prev = id
	}
}

// The analytic Jacobian must match finite differences over random bias
// points — this is the correctness core of the Newton solver.
func TestMOSFETGradientsFiniteDifference(t *testing.T) {
	check := func(model *MOSModel, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &MOSFET{d: -1, g: -1, s: -1, b: -1, Model: model, DeltaVth: 0.05 * rng.NormFloat64()}
		vd := 1.2 * rng.Float64()
		vg := 1.2 * rng.Float64()
		vs := 0.6 * rng.Float64()
		vb := 0.0
		id0, gd, gg, gs, gb := m.Eval(vd, vg, vs, vb)
		const h = 1e-7
		fd := func(dd, dg, ds, db float64) float64 {
			ip, _, _, _, _ := m.Eval(vd+dd*h, vg+dg*h, vs+ds*h, vb+db*h)
			im, _, _, _, _ := m.Eval(vd-dd*h, vg-dg*h, vs-ds*h, vb-db*h)
			return (ip - im) / (2 * h)
		}
		grads := []float64{gd, gg, gs, gb}
		nums := []float64{fd(1, 0, 0, 0), fd(0, 1, 0, 0), fd(0, 0, 1, 0), fd(0, 0, 0, 1)}
		for k := range grads {
			scale := math.Max(math.Abs(nums[k]), math.Abs(id0)/0.01)
			if scale < 1e-15 {
				continue
			}
			if math.Abs(grads[k]-nums[k]) > 1e-4*scale+1e-15 {
				t.Logf("grad %d: analytic %v numeric %v (id=%v)", k, grads[k], nums[k], id0)
				return false
			}
		}
		return true
	}
	if err := quick.Check(func(seed int64) bool { return check(nmosModel(), seed) },
		&quick.Config{MaxCount: 60}); err != nil {
		t.Fatalf("NMOS gradients: %v", err)
	}
	if err := quick.Check(func(seed int64) bool { return check(pmosModel(), seed) },
		&quick.Config{MaxCount: 60}); err != nil {
		t.Fatalf("PMOS gradients: %v", err)
	}
}

// Drain/source symmetry: swapping D and S must negate the current.
func TestMOSFETDSSymmetry(t *testing.T) {
	m := &MOSFET{d: -1, g: -1, s: -1, b: -1, Model: nmosModel()}
	for _, bias := range [][3]float64{{0.8, 1.0, 0.2}, {0.3, 0.7, 0.5}, {1.1, 0.5, 0.9}} {
		vd, vg, vs := bias[0], bias[1], bias[2]
		i1, _, _, _, _ := m.Eval(vd, vg, vs, 0)
		i2, _, _, _, _ := m.Eval(vs, vg, vd, 0)
		if math.Abs(i1+i2) > 1e-12+1e-9*math.Abs(i1) {
			t.Fatalf("D/S symmetry broken: %v vs %v", i1, i2)
		}
	}
}

// PMOS mirror: a PMOS biased with mirrored voltages must carry the
// opposite current of the equivalent NMOS.
func TestPMOSMirror(t *testing.T) {
	nm := nmosModel()
	pmod := *nm
	pmod.Type = PMOS
	n := &MOSFET{d: -1, g: -1, s: -1, b: -1, Model: nm}
	p := &MOSFET{d: -1, g: -1, s: -1, b: -1, Model: &pmod}
	in, _, _, _, _ := n.Eval(0.8, 1.0, 0.0, 0.0)
	ip, _, _, _, _ := p.Eval(-0.8, -1.0, 0.0, 0.0)
	if math.Abs(in+ip) > 1e-15 {
		t.Fatalf("PMOS mirror broken: %v vs %v", in, ip)
	}
}

// TestMOSFETMemoIsExact: the softplus memo must never show. Every Eval
// on a device with a history returns, bit for bit, the outputs of a
// fresh device at the same inputs, through repeated calls, repeats of
// only the forward or only the reverse argument, both ±34 switch points
// of softplusSq, signed zeros (an argument of exactly +0 included),
// subnormal, infinite and NaN voltages, and ΔVth, VT0 and Vt changes
// between calls at the same voltages. Bits are compared, so NaN
// outputs must match too.
func TestMOSFETMemoIsExact(t *testing.T) {
	for _, model := range []*MOSModel{nmosModel(), pmosModel()} {
		// NMOS-polarity voltages; Eval sees them mirrored for PMOS.
		name, pol := "NMOS", 1.0
		if model.Type == PMOS {
			name, pol = "PMOS", -1
		}
		dev := &MOSFET{d: -1, g: -1, s: -1, b: -1, Model: model}
		eval := func(vd, vg, vs, vb float64) {
			t.Helper()
			v := [4]float64{pol * vd, pol * vg, pol * vs, pol * vb}
			fresh := &MOSFET{d: -1, g: -1, s: -1, b: -1, Model: model, DeltaVth: dev.DeltaVth}
			got, want := evalBits(dev, v), evalBits(fresh, v)
			if got != want {
				t.Fatalf("%s at V=%v, ΔVth=%v, VT0=%v, Vt=%v: outputs %x, fresh device %x",
					name, v, dev.DeltaVth, model.VT0, model.Vt, got, want)
			}
		}
		eval(0.8, 0.6, 0.1, 0)
		eval(0.8, 0.6, 0.1, 0) // both arguments repeat
		eval(1.0, 0.6, 0.1, 0) // only the forward argument repeats
		eval(1.0, 0.6, 0.2, 0) // only the reverse argument repeats
		dev.DeltaVth = 0.05
		eval(1.0, 0.6, 0.2, 0)
		model.VT0 += 0.02
		eval(1.0, 0.6, 0.2, 0)
		model.Vt = 0.03
		eval(1.0, 0.6, 0.2, 0)
		model.Vt = 0
		// Both arguments sweep through −34 and +34 (|u| reaches ~60).
		for k := -60; k <= 60; k++ {
			vs := 0.05 * float64(k)
			eval(-vs, 0, vs, 0)
			eval(-vs, 0, vs, 0)
		}
		// vg = VT0 + ΔVth with vs = vb = 0 makes the forward argument
		// exactly +0, the bits of an empty memo slot.
		vth := model.VT0 + dev.DeltaVth
		negZero := math.Copysign(0, -1)
		nan, inf := math.NaN(), math.Inf(1)
		for _, v := range [][4]float64{
			{0.5, vth, 0, 0}, {0.5, vth, 0, 0}, {0.5, vth, negZero, negZero},
			{0, 0.6, 0, 0}, {negZero, 0.6, negZero, negZero},
			{math.SmallestNonzeroFloat64, 0.6, -math.SmallestNonzeroFloat64, 0},
			{inf, 0.6, 0.1, 0}, {-inf, 0.6, 0.1, 0}, {0.8, inf, 0.1, 0}, {0.8, -inf, 0.1, 0},
			{nan, 0.6, 0.1, 0}, {nan, 0.6, 0.1, 0}, {0.8, nan, 0.1, 0}, {0.8, 0.6, nan, 0},
			{0.8, 0.6, 0.1, 0},
		} {
			eval(v[0], v[1], v[2], v[3])
		}
	}
}

// evalBits returns the Float64bits of m.Eval's five outputs at v.
func evalBits(m *MOSFET, v [4]float64) [5]uint64 {
	id, gd, gg, gs, gb := m.Eval(v[0], v[1], v[2], v[3])
	return [5]uint64{math.Float64bits(id), math.Float64bits(gd), math.Float64bits(gg),
		math.Float64bits(gs), math.Float64bits(gb)}
}

// A CMOS inverter VTC must be monotonically decreasing and rail-to-rail.
func TestInverterVTC(t *testing.T) {
	const vdd = 1.0
	c := NewCircuit()
	c.AddVSource("vdd", "vdd", "0", vdd)
	c.AddVSource("vin", "in", "0", 0)
	c.AddMOSFET("mn", "out", "in", "0", "0", nmosModel())
	c.AddMOSFET("mp", "out", "in", "vdd", "vdd", pmosModel())

	var prev float64 = math.Inf(1)
	var first, last float64
	i := 0
	err := c.Sweep("vin", 0, vdd, 51, nil, func(v float64, op *OperatingPoint) bool {
		out := op.Voltage("out")
		if out > prev+1e-6 {
			t.Fatalf("VTC not monotone at vin=%v: %v > %v", v, out, prev)
		}
		prev = out
		if i == 0 {
			first = out
		}
		last = out
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if first < 0.95*vdd {
		t.Fatalf("VTC(0) = %v, want ≈ VDD", first)
	}
	if last > 0.05*vdd {
		t.Fatalf("VTC(VDD) = %v, want ≈ 0", last)
	}
}

// Property: at any solved operating point the KCL residual of every node
// is tiny — the solver's own invariant, checked externally.
func TestKCLResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCircuit()
		c.AddVSource("vdd", "vdd", "0", 1.0)
		c.AddVSource("vin", "in", "0", rng.Float64())
		mn := c.AddMOSFET("mn", "out", "in", "0", "0", nmosModel())
		mp := c.AddMOSFET("mp", "out", "in", "vdd", "vdd", pmosModel())
		mn.DeltaVth = 0.06 * rng.NormFloat64()
		mp.DeltaVth = 0.06 * rng.NormFloat64()
		c.AddResistor("rl", "out", "0", 1e7)
		op, err := c.SolveDC(nil)
		if err != nil {
			return false
		}
		// Recompute the residual at the solution.
		c.indexBranches()
		n := c.NumUnknowns()
		fres := make([]float64, n)
		j := linalg.NewMatrix(n, n)
		for _, d := range c.devices {
			d.Stamp(op.x, fres, j)
		}
		for i := 0; i < c.NumNodes(); i++ {
			if math.Abs(fres[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepErrors(t *testing.T) {
	c := NewCircuit()
	c.AddVSource("v", "a", "0", 1)
	c.AddResistor("r", "a", "0", 100)
	if err := c.Sweep("v", 0, 1, 1, nil, func(float64, *OperatingPoint) bool { return true }); err == nil {
		t.Fatal("expected error for <2 steps")
	}
	if err := c.Sweep("nope", 0, 1, 3, nil, func(float64, *OperatingPoint) bool { return true }); err == nil {
		t.Fatal("expected error for missing source")
	}
	// Early stop must not error.
	n := 0
	if err := c.Sweep("v", 0, 1, 11, nil, func(float64, *OperatingPoint) bool {
		n++
		return n < 3
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("early stop visited %d points", n)
	}
	// Source value restored.
	src, _ := c.VSourceByName("v")
	if src.E != 1 {
		t.Fatalf("sweep did not restore source: %v", src.E)
	}
}

func TestSweepRestoresOnError(t *testing.T) {
	c := NewCircuit()
	c.AddVSource("v", "a", "0", 2)
	c.AddResistor("r", "a", "0", 50)
	vals := []float64{}
	err := c.Sweep("v", -1, 1, 5, nil, func(v float64, op *OperatingPoint) bool {
		vals = append(vals, op.Voltage("a"))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		want := -1 + 2*float64(i)/4
		if math.Abs(v-want) > 1e-9 {
			t.Fatalf("sweep point %d: %v want %v", i, v, want)
		}
	}
}

// Bistable latch: the initial guess must select the basin.
func TestLatchBistability(t *testing.T) {
	build := func() *Circuit {
		c := NewCircuit()
		c.AddVSource("vdd", "vdd", "0", 1.0)
		c.AddMOSFET("mn1", "q", "qb", "0", "0", nmosModel())
		c.AddMOSFET("mp1", "q", "qb", "vdd", "vdd", pmosModel())
		c.AddMOSFET("mn2", "qb", "q", "0", "0", nmosModel())
		c.AddMOSFET("mp2", "qb", "q", "vdd", "vdd", pmosModel())
		return c
	}
	c := build()
	op0, err := c.SolveDC(&DCOptions{InitialGuess: map[string]float64{"q": 0, "qb": 1.0}})
	if err != nil {
		t.Fatal(err)
	}
	if op0.Voltage("q") > 0.1 || op0.Voltage("qb") < 0.9 {
		t.Fatalf("state 0 not held: q=%v qb=%v", op0.Voltage("q"), op0.Voltage("qb"))
	}
	op1, err := c.SolveDC(&DCOptions{InitialGuess: map[string]float64{"q": 1.0, "qb": 0}})
	if err != nil {
		t.Fatal(err)
	}
	if op1.Voltage("q") < 0.9 || op1.Voltage("qb") > 0.1 {
		t.Fatalf("state 1 not held: q=%v qb=%v", op1.Voltage("q"), op1.Voltage("qb"))
	}
}

func TestWarmStartSizeMismatch(t *testing.T) {
	c1 := NewCircuit()
	c1.AddVSource("v", "a", "0", 1)
	c1.AddResistor("r", "a", "0", 10)
	op, err := c1.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCircuit()
	c2.AddVSource("v", "a", "0", 1)
	c2.AddResistor("r1", "a", "b", 10)
	c2.AddResistor("r2", "b", "0", 10)
	if _, err := c2.SolveDC(&DCOptions{Warm: op}); err == nil {
		t.Fatal("expected warm-start size mismatch error")
	}
}
