package sram

import (
	"math"
	"testing"
)

// The dual read current must be exactly symmetric under swapping the two
// access-transistor mismatches (the property that makes the two lobes of
// the §V-B region identical).
func TestDualReadSymmetry(t *testing.T) {
	dual := &Metric{Cell: Default90nm(), Kind: DualRead}
	for _, pair := range [][2]float64{{0.05, -0.02}, {0.12, 0.03}, {-0.04, 0.09}} {
		var a, b [NumTransistors]float64
		a[M3], a[M4] = pair[0], pair[1]
		b[M3], b[M4] = pair[1], pair[0]
		ia := rawValue(t, dual, a)
		ib := rawValue(t, dual, b)
		if math.Abs(ia-ib) > 1e-9*math.Abs(ia) {
			t.Fatalf("dual read not symmetric: %v vs %v for %v", ia, ib, pair)
		}
	}
}

// The dual current equals the min of the two sides, and a weak side drags
// it below the nominal single-sided value.
func TestDualReadIsMin(t *testing.T) {
	c := Default90nm()
	dual := &Metric{Cell: c, Kind: DualRead}
	rc := &Metric{Cell: c, Kind: ReadCurrent}
	var z [NumTransistors]float64
	i0 := rawValue(t, dual, z)
	single := rawValue(t, rc, z)
	if math.Abs(i0-single) > 1e-9 {
		t.Fatalf("nominal dual %v should equal single-sided %v", i0, single)
	}
	var d [NumTransistors]float64
	d[M4] = 0.12 // weaken only the B side
	id := rawValue(t, dual, d)
	if id >= i0 {
		t.Fatalf("weak B side should reduce the dual current: %v vs %v", id, i0)
	}
	// The A-side current is unchanged; the dual must be the B side.
	ia := rawValue(t, rc, d)
	if math.Abs(ia-i0)/i0 > 0.02 {
		t.Fatalf("A side should be unaffected by ΔVth4: %v vs %v", ia, i0)
	}
}

func TestMirrorInvolution(t *testing.T) {
	d := [NumTransistors]float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06}
	single := d
	mirrorRow(single[:])
	m := single
	mirrorRow(m[:])
	if m != d {
		t.Fatalf("mirror is not an involution: %v", m)
	}
	if single[M1] != d[M2] || single[M3] != d[M4] || single[M5] != d[M6] {
		t.Fatalf("mirror mapping wrong: %v", single)
	}
}

func TestStringers(t *testing.T) {
	if HoldConfig.String() != "hold" || ReadConfig.String() != "read" || WriteConfig.String() != "write" {
		t.Fatal("BiasConfig names wrong")
	}
	if BiasConfig(99).String() == "" {
		t.Fatal("unknown config should still print")
	}
	for k, want := range map[MetricKind]string{
		RNM: "rnm", WNM: "wnm", ReadCurrent: "readcurrent", DualRead: "dualread",
		AccessTime: "access",
	} {
		if k.String() != want {
			t.Fatalf("MetricKind %d prints %q", k, k.String())
		}
	}
	if MetricKind(99).String() == "" {
		t.Fatal("unknown kind should still print")
	}
}

func TestMetricErrorValueFloors(t *testing.T) {
	cell := Default90nm()
	cases := map[MetricKind]float64{
		WNM:         WriteTripFloor,
		ReadCurrent: 0,
		DualRead:    0,
		RNM:         -cell.VDD,
		AccessTime:  accessStop,
	}
	for kind, want := range cases {
		m := &Metric{Cell: cell, Kind: kind, Which: []int{M1}}
		if got := m.errorValue(); got != want {
			t.Fatalf("%v error floor %v, want %v", kind, got, want)
		}
	}
}

func TestMetricUnknownKindFailsClosed(t *testing.T) {
	m := &Metric{Cell: Default90nm(), Kind: MetricKind(99), Spec: 0, Which: []int{M1}}
	if v := m.Value([]float64{0}); v >= 0 {
		t.Fatalf("unknown kind should produce a failing margin, got %v", v)
	}
}

func TestTransferCurvesExported(t *testing.T) {
	c := Default90nm()
	g1, g2, err := TransferCurves(c, ReadConfig, [NumTransistors]float64{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g1.X) != c.Grid || len(g2.X) != c.Grid {
		t.Fatalf("curve lengths %d/%d, want %d", len(g1.X), len(g2.X), c.Grid)
	}
	// Monotone decreasing from the top rail down to the read-disturb
	// floor (the access transistor holds the output ≈0.1 V above ground
	// in the read configuration).
	if g1.Y[0] < 0.95 || g1.Y[len(g1.Y)-1] > 0.2 {
		t.Fatalf("g1 endpoints implausible: %v..%v", g1.Y[0], g1.Y[len(g1.Y)-1])
	}
	for i := 1; i < len(g1.Y); i++ {
		if g1.Y[i] > g1.Y[i-1]+1e-6 {
			t.Fatal("g1 not monotone")
		}
	}
}

func TestGridDefault(t *testing.T) {
	c := Default90nm()
	c.Grid = 0
	if c.grid() != 41 {
		t.Fatalf("default grid %d", c.grid())
	}
	c.Grid = 4 // below the floor
	if c.grid() != 41 {
		t.Fatalf("tiny grid should fall back: %d", c.grid())
	}
	c.Grid = 21
	if c.grid() != 21 {
		t.Fatalf("explicit grid ignored: %d", c.grid())
	}
}
