package spice

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

func TestNodeNamesAndClone(t *testing.T) {
	c := NewCircuit()
	c.AddVSource("v", "a", "0", 1)
	c.AddResistor("r", "a", "b", 1e3)
	c.AddResistor("r2", "b", "0", 1e3)
	names := c.NodeNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("node names: %v", names)
	}
	// Mutating the returned slice must not corrupt the circuit.
	names[0] = "zz"
	if c.NodeNames()[0] != "a" {
		t.Fatal("NodeNames aliases internal state")
	}
	op, err := c.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	cl := op.Clone()
	cl.x[0] = 99
	if op.Voltage("a") == 99 {
		t.Fatal("Clone aliases the solution vector")
	}
}

func TestOperatingPointUnknownNodePanics(t *testing.T) {
	c := NewCircuit()
	c.AddVSource("v", "a", "0", 1)
	c.AddResistor("r", "a", "0", 1e3)
	op, err := c.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown node")
		}
	}()
	op.Voltage("missing")
}

func TestMOSFETCurrentAtOP(t *testing.T) {
	c := NewCircuit()
	c.AddVSource("vd", "d", "0", 1.0)
	c.AddVSource("vg", "g", "0", 0.8)
	m := c.AddMOSFET("m1", "d", "g", "0", "0", nmosModel())
	op, err := c.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	i := m.Current(op)
	// Saturated NMOS with Vov ≈ 0.45: tens of µA for this geometry.
	if i < 1e-6 || i > 1e-3 {
		t.Fatalf("implausible drain current %v", i)
	}
	// Must equal the source branch current (KCL through the ammeter).
	vd, _ := c.VSourceByName("vd")
	if math.Abs(vd.Current(op)+i) > 1e-9 {
		t.Fatalf("branch current %v vs device current %v", vd.Current(op), i)
	}
}

func TestSoftplusSqAsymptotes(t *testing.T) {
	// Large positive: f = u², df = 2u.
	f, df := softplusSq(50)
	if f != 2500 || df != 100 {
		t.Fatalf("positive asymptote: %v %v", f, df)
	}
	// Large negative: ≈ e^{2u}, tiny but positive.
	f, df = softplusSq(-50)
	if f <= 0 || f > 1e-40 || df <= 0 {
		t.Fatalf("negative asymptote: %v %v", f, df)
	}
	// Continuity across the switch points.
	for _, u := range []float64{33.999, 34.001, -33.999, -34.001} {
		f1, d1 := softplusSq(u)
		if math.IsNaN(f1) || math.IsNaN(d1) {
			t.Fatalf("NaN at %v", u)
		}
	}
	// Branch agreement: where each asymptotic branch takes over, f and df
	// must match the overflow-safe exact form, softplus(u) =
	// max(u, 0) + log1p(e^−|u|) with σ(u) on its stable side, to near
	// machine precision (e^−34 ≈ 1.7e-15).
	above := math.Nextafter(softplusAsym, math.Inf(1))
	for _, u := range []float64{above, softplusAsym + 0.5, -above, -softplusAsym - 0.5} {
		sp := math.Max(u, 0) + math.Log1p(math.Exp(-math.Abs(u)))
		sg := 1 / (1 + math.Exp(-u))
		if u < 0 {
			e := math.Exp(u)
			sg = e / (1 + e)
		}
		fExact, dfExact := sp*sp, 2*sp*sg
		f, df := softplusSq(u)
		if math.Abs(f-fExact) > 1e-12*fExact || math.Abs(df-dfExact) > 1e-12*dfExact {
			t.Fatalf("asymptotic branch at u=%v: f %v, df %v; exact %v, %v", u, f, df, fExact, dfExact)
		}
	}
}

func TestThermalVoltageOverride(t *testing.T) {
	m := nmosModel()
	m.Vt = 0.030 // hot device
	if m.vt() != 0.030 {
		t.Fatal("Vt override ignored")
	}
	m.Vt = 0
	if m.vt() != 0.02585 {
		t.Fatal("Vt default wrong")
	}
	m.N = 0
	if m.slope() != 1.3 {
		t.Fatal("slope default wrong")
	}
}

// Source stepping fallback: a circuit whose cold-start Newton diverges
// (bistable latch with an all-zero guess lands between basins) must still
// solve via the homotopy path.
func TestSolveDCHomotopyFallback(t *testing.T) {
	c := NewCircuit()
	c.AddVSource("vdd", "vdd", "0", 1.0)
	c.AddMOSFET("mn1", "q", "qb", "0", "0", nmosModel())
	c.AddMOSFET("mp1", "q", "qb", "vdd", "vdd", pmosModel())
	c.AddMOSFET("mn2", "qb", "q", "0", "0", nmosModel())
	c.AddMOSFET("mp2", "qb", "q", "vdd", "vdd", pmosModel())
	// Deliberately hostile options: few plain-Newton iterations force the
	// fallback machinery to do the work.
	op, err := c.SolveDC(&DCOptions{MaxIter: 4})
	if err != nil {
		t.Fatal(err)
	}
	q, qb := op.Voltage("q"), op.Voltage("qb")
	// Any valid DC solution of the latch satisfies KCL; the two nodes
	// must be complementary or metastable-equal.
	if math.IsNaN(q) || math.IsNaN(qb) {
		t.Fatal("NaN solution")
	}
}

func TestCapacitorStampInactiveIsOpen(t *testing.T) {
	cap := &Capacitor{p: 0, m: -1, C: 1e-12}
	f := make([]float64, 1)
	x := []float64{0.7}
	cap.Stamp(x, f, zeroMat(1))
	if f[0] != 0 {
		t.Fatal("inactive capacitor stamped current")
	}
	cap.active = true
	cap.geq = 1e-3
	cap.ieq = 0
	cap.Stamp(x, f, zeroMat(1))
	if math.Abs(f[0]-0.7e-3) > 1e-18 {
		t.Fatalf("active companion current wrong: %v", f[0])
	}
}

func TestPinStampName(t *testing.T) {
	p := &pinStamp{}
	if p.Name() == "" {
		t.Fatal("pin stamp must have a name")
	}
}

// zeroMat builds a zeroed Jacobian for direct stamp tests.
func zeroMat(n int) *linalg.Matrix { return linalg.NewMatrix(n, n) }
