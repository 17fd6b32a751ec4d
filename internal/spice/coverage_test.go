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
	const rd = 1e3
	c := NewCircuit()
	c.AddVSource("vd", "s", "0", 1.0)
	c.AddResistor("rd", "s", "d", rd)
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
	// Must equal the current through the series resistor (KCL at the
	// drain, to the solver's residual tolerance).
	if ir := (op.Voltage("s") - op.Voltage("d")) / rd; math.Abs(ir-i) > 1e-9 {
		t.Fatalf("resistor current %v vs device current %v", ir, i)
	}
}

// softplusRef holds u, softplus(u)² and 2·softplus(u)·σ(u) to 25
// digits, from 200-bit arithmetic:
//
//	python3 -c '
//	import mpmath as m
//	m.mp.prec = 200
//	for u in [0.0, 1e-300, 1e-10, 1e-3, 0.1, 0.5, 1, 2, 5, 10, 20, 30, 33.999, 34, 34.005, 34.5, 40, 50, 100, 700, 745]:
//	    for v in ([u] if u == 0 else [-u, u]):
//	        x = m.mpf(v); s = m.log1p(m.exp(x))
//	        print("{%r, %s, %s}," % (v, m.nstr(s*s, 25), m.nstr(2*s/(1+m.exp(-x)), 25)))'
//
// The float64 conversion of each constant rounds to nearest, and the
// references at −700 and −745 round to 0.
var softplusRef = []struct{ u, f, df float64 }{
	{0.0, 0.4804530139182014246671025, 0.6931471805599453094172321},
	{-1e-300, 0.4804530139182014246671025, 0.6931471805599453094172321},
	{1e-300, 0.4804530139182014246671025, 0.6931471805599453094172321},
	{-1e-10, 0.4804530138488867066153409, 0.6931471804752879503929849},
	{1e-10, 0.4804530139875161427273299, 0.6931471806446026684489794},
	{-0.001, 0.4797602898994450292539827, 0.6923009819360204325283973},
	{0.001, 0.4811465845105649094850092, 0.6939941291838181029776259},
	{-0.1, 0.415247055513973274410454, 0.612203650108009913425401},
	{0.1, 0.5541263875286874611135579, 0.7815855075349198742861483},
	{-0.5, 0.2247489869293051201654806, 0.3579666833383305790823251},
	{0.5, 0.9488259711094118010384779, 1.21264661622373734730257},
	{-1, 0.09813288486676468774077364, 0.168498087003828216566149},
	{1, 1.724656259903210355838765, 1.92014244529262721003416},
	{-2, 0.01611071998732494800446027, 0.03026037960555585305271421},
	{2, 4.523822764159214933779367, 3.746783954391918916073656},
	{-5, 0.00004509590533030032693071819, 0.00008988965268457754766931637},
	{5, 25.0671985807965109864911, 9.946412298082703004091544},
	{-10, 2.061060050103033437747584e-9, 4.122026531764545780979026e-9},
	{10, 100.0009079800453973430384, 19.9991828363023585096389},
	{-20, 4.248354246535078249177185e-18, 8.496708484313645768746793e-18},
	{20, 400.0000000824461448168236, 39.99999992167616250452391},
	{-30, 8.756510762695700937226334e-27, 1.751302152539058247319027e-26},
	{30, 900.0000000000056145737813, 59.99999999999457257867807},
	{-33.999, 2.943362954817031125531496e-30, 5.88672590963405720136123e-30},
	{33.999, 1155.932001000000275133737, 67.99799999999989143346058},
	{-34, 2.937482111710797912033522e-30, 5.874964223421590789491685e-30},
	{34, 1156.000000000000116545773, 67.99999999999988688204352},
	{-34.005, 2.908253676340415719646914e-30, 5.816507352680826479673531e-30},
	{34.005, 1156.340025000000289947994, 68.00999999999989254507577},
	{-34.5, 1.080639277707277371171044e-30, 2.161278555414553618976481e-30},
	{34.5, 1190.250000000000071728123, 68.99999999999993035095322},
	{-40, 1.80485138784541516464448e-35, 3.609702775690830321621312e-35},
	{40, 1600.000000000000000339868, 79.99999999999999966862837},
	{-50, 3.720075976020835962958978e-44, 7.440151952041671925917239e-44},
	{50, 2500.000000000000000000019, 99.9999999999999999999811},
	{-100, 1.383896526736737530648681e-87, 2.767793053473475061297363e-87},
	{100, 10000.0, 200.0},
	{-700, 9.721322154756662063740321e-609, 1.944264430951332412748064e-608},
	{700, 490000.0, 1400.0},
	{-745, 7.965663645795476804143119e-648, 1.593132729159095360828624e-647},
	{745, 555025.0, 1490.0},
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
	// Within 8 ulp of the reference everywhere, and exactly 0 where the
	// reference underflows. NaN fails every comparison, so it fails here.
	ulps := func(got, ref float64) float64 {
		if ref == 0 {
			if got == 0 {
				return 0
			}
			return math.Inf(1)
		}
		return math.Abs(got-ref) / (math.Nextafter(math.Abs(ref), math.Inf(1)) - math.Abs(ref))
	}
	for _, r := range softplusRef {
		f, df := softplusSq(r.u)
		if uf, udf := ulps(f, r.f), ulps(df, r.df); !(uf <= 8 && udf <= 8) {
			t.Errorf("u=%v: f %v (%.1f ulp), df %v (%.1f ulp); reference %v, %v", r.u, f, uf, df, udf, r.f, r.df)
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

// zeroMat builds a zeroed Jacobian for direct stamp tests.
func zeroMat(n int) *linalg.Matrix { return linalg.NewMatrix(n, n) }
