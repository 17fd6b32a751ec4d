package sram

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

var zero [NumTransistors]float64

// rawValue is m.Raw(d), failing the test on a simulation error.
func rawValue(t *testing.T, m interface {
	Raw([NumTransistors]float64) (float64, error)
}, d [NumTransistors]float64) float64 {
	t.Helper()
	v, err := m.Raw(d)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNominalCellState(t *testing.T) {
	c := Default90nm()
	q, qb, err := c.StaticNodeVoltages(ReadConfig, zero)
	if err != nil {
		t.Fatal(err)
	}
	// Read-disturb bump: Q must rise above ground but stay well below the
	// inverter trip; QB must hold at the rail.
	if q < 0.01 || q > 0.35 {
		t.Fatalf("read bump q = %v", q)
	}
	if qb < 0.95*c.VDD {
		t.Fatalf("qb = %v, want ≈ VDD", qb)
	}
	qh, qbh, err := c.StaticNodeVoltages(HoldConfig, zero)
	if err != nil {
		t.Fatal(err)
	}
	if qh > 0.02 || qbh < 0.98*c.VDD {
		t.Fatalf("hold state q=%v qb=%v", qh, qbh)
	}
}

func TestNominalMargins(t *testing.T) {
	c := Default90nm()
	rs := rawValue(t, &Metric{Cell: c, Kind: RNM}, zero)
	if rs < 0.15 || rs > 0.35 {
		t.Fatalf("nominal read SNM %v outside plausible range", rs)
	}
	hs := rawValue(t, &Metric{Cell: c, Kind: Hold}, zero)
	if hs <= rs {
		t.Fatalf("hold SNM %v must exceed read SNM %v", hs, rs)
	}
	wm := rawValue(t, &Metric{Cell: c, Kind: WNM}, zero)
	if wm < 0.2 || wm > 0.6 {
		t.Fatalf("nominal write-trip %v outside plausible range", wm)
	}
	ir := rawValue(t, &Metric{Cell: c, Kind: ReadCurrent}, zero)
	if ir < 20e-6 || ir > 100e-6 {
		t.Fatalf("nominal read current %v outside plausible range", ir)
	}
}

func TestNominalEyesSymmetric(t *testing.T) {
	c := Default90nm()
	s, err := c.NoiseMargins(ReadConfig, zero)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Eye0-s.Eye1) > 1e-3 {
		t.Fatalf("nominal butterfly eyes asymmetric: %+v", s)
	}
	if s.Min() != math.Min(s.Eye0, s.Eye1) {
		t.Fatal("SNM.Min wrong")
	}
}

// NoiseMargins traces the butterfly with the engine's own sweep, so its
// state-0 eye is bit-identical to the RNM (read) and Hold metrics' raw
// value.
func TestNoiseMarginsMatchMetricRaw(t *testing.T) {
	c := Default90nm()
	d := [NumTransistors]float64{0.03, -0.02, 0.01, 0, 0.02, -0.01}
	for cfg, kind := range map[BiasConfig]MetricKind{ReadConfig: RNM, HoldConfig: Hold} {
		m := &Metric{Cell: c, Kind: kind}
		for _, dv := range [][NumTransistors]float64{zero, d} {
			s, err := c.NoiseMargins(cfg, dv)
			if err != nil {
				t.Fatal(err)
			}
			if raw := rawValue(t, m, dv); s.Eye0 != raw {
				t.Fatalf("%v at %v: NoiseMargins eye %v != %v raw %v", cfg, dv, s.Eye0, kind, raw)
			}
		}
	}
}

// Mirror symmetry: swapping the roles of side A and side B mismatches must
// exchange the two eyes.
func TestEyeMirrorSymmetry(t *testing.T) {
	c := Default90nm()
	d := [NumTransistors]float64{}
	d[M1], d[M3], d[M5] = 0.04, -0.03, 0.02
	s1, err := c.NoiseMargins(ReadConfig, d)
	if err != nil {
		t.Fatal(err)
	}
	m := [NumTransistors]float64{}
	m[M2], m[M4], m[M6] = d[M1], d[M3], d[M5]
	s2, err := c.NoiseMargins(ReadConfig, m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s1.Eye0-s2.Eye1) > 2e-3 || math.Abs(s1.Eye1-s2.Eye0) > 2e-3 {
		t.Fatalf("mirror symmetry broken: %+v vs %+v", s1, s2)
	}
}

func TestReadSNMSensitivities(t *testing.T) {
	rnm := &Metric{Cell: Default90nm(), Kind: RNM}
	r0 := rawValue(t, rnm, zero)
	// Weaker driver M1 hurts the state-0 eye.
	d := [NumTransistors]float64{}
	d[M1] = 0.09
	r1 := rawValue(t, rnm, d)
	if r1 >= r0 {
		t.Fatalf("weak driver should reduce RNM: %v -> %v", r0, r1)
	}
	// Stronger access M3 hurts it too.
	d = [NumTransistors]float64{}
	d[M3] = -0.09
	r3 := rawValue(t, rnm, d)
	if r3 >= r0 {
		t.Fatalf("strong access should reduce RNM: %v -> %v", r0, r3)
	}
}

func TestWriteTripSensitivities(t *testing.T) {
	wnm := &Metric{Cell: Default90nm(), Kind: WNM}
	w0 := rawValue(t, wnm, zero)
	// Weaker access M3 makes writing harder (lower trip voltage).
	d := [NumTransistors]float64{}
	d[M3] = 0.12
	w1 := rawValue(t, wnm, d)
	if w1 >= w0 {
		t.Fatalf("weak access should reduce write trip: %v -> %v", w0, w1)
	}
	// Stronger load M5 fights the write: harder still.
	d[M5] = -0.12
	w2 := rawValue(t, wnm, d)
	if w2 >= w1 {
		t.Fatalf("strong load should reduce write trip further: %v -> %v", w1, w2)
	}
}

func TestWriteTripSaturatesAtFloor(t *testing.T) {
	wnm := &Metric{Cell: Default90nm(), Kind: WNM}
	// Moderately broken cell: write fails at any physical bitline voltage
	// (negative trip), but the continuous extension below 0 V still
	// resolves it.
	d := [NumTransistors]float64{}
	d[M3] = 0.8
	d[M5] = -0.5
	w := rawValue(t, wnm, d)
	if w >= 0 {
		t.Fatalf("broken cell should have negative trip, got %v", w)
	}
	// Absurdly dead access transistor: even the floor cannot flip it.
	d[M3] = 1.5
	w = rawValue(t, wnm, d)
	if w != WriteTripFloor {
		t.Fatalf("expected floor %v, got %v", WriteTripFloor, w)
	}
}

func TestReadCurrentSensitivities(t *testing.T) {
	rc := &Metric{Cell: FastRead90nm(), Kind: ReadCurrent}
	i0 := rawValue(t, rc, zero)
	for _, tr := range []int{M1, M3} {
		d := [NumTransistors]float64{}
		d[tr] = 0.09
		i1 := rawValue(t, rc, d)
		if i1 >= i0 {
			t.Fatalf("weaker M%d should reduce read current: %v -> %v", tr+1, i0, i1)
		}
	}
	// Unrelated transistor M6 barely matters.
	d := [NumTransistors]float64{}
	d[M6] = 0.09
	i6 := rawValue(t, rc, d)
	if math.Abs(i6-i0)/i0 > 0.02 {
		t.Fatalf("M6 should not drive read current: %v -> %v", i0, i6)
	}
}

// Read-disturb flip: extreme weak-driver/strong-access corner collapses
// the read current — the mechanism that bends the §V-B failure region.
func TestReadFlipCollapsesCurrent(t *testing.T) {
	c := FastRead90nm()
	d := [NumTransistors]float64{}
	d[M1] = c.SigmaVth * 8
	d[M3] = -c.SigmaVth * 8
	i := rawValue(t, &Metric{Cell: c, Kind: ReadCurrent}, d)
	if i > 5e-6 {
		t.Fatalf("flipped cell should carry ≈no read current, got %v", i)
	}
}

func TestMetricMarginConvention(t *testing.T) {
	m := NewReadCurrentMetric(FastRead90nm(), ReadCurrentSpec)
	if m.Dim() != 2 {
		t.Fatalf("read-current dim = %d", m.Dim())
	}
	// Nominal passes.
	if v := m.Value([]float64{0, 0}); v <= 0 {
		t.Fatalf("nominal should pass, margin %v", v)
	}
	// Deep weak-access corner fails.
	if v := m.Value([]float64{0, 8}); v >= 0 {
		t.Fatalf("weak access at 8σ should fail, margin %v", v)
	}
}

func TestMetricDimPanics(t *testing.T) {
	m := RNMWorkload()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong dimensionality")
		}
	}()
	m.Value([]float64{0, 0})
}

func TestWorkloadDims(t *testing.T) {
	if RNMWorkload().Dim() != 6 || WNMWorkload().Dim() != 6 {
		t.Fatal("noise-margin workloads must be 6-D")
	}
	if ReadCurrentWorkload().Dim() != 2 {
		t.Fatal("read-current workload must be 2-D")
	}
}

func TestWorkloadSpecsNearCalibration(t *testing.T) {
	// The calibrated specs must keep the nominal point passing with
	// meaningful margin (the 4.75σ design intent).
	if v := RNMWorkload().Value(make([]float64, 6)); v < 0.05 {
		t.Fatalf("nominal RNM margin too small: %v", v)
	}
	if v := WNMWorkload().Value(make([]float64, 6)); v < 0.05 {
		t.Fatalf("nominal WNM margin too small: %v", v)
	}
	if v := ReadCurrentWorkload().Value(make([]float64, 2)); v < 5 {
		t.Fatalf("nominal read-current margin too small: %v µA", v)
	}
}

// Property: curve interpolation is exact at knots, clamped outside, and
// bounded by neighbors inside.
func TestCurveInterpolation(t *testing.T) {
	cv := &curve{xs: []float64{0, 1, 2, 3}, ys: []float64{5, 3, 2, 0}}
	for i, x := range cv.xs {
		if cv.at(x) != cv.ys[i] {
			t.Fatalf("knot %d: %v", i, cv.at(x))
		}
	}
	if cv.at(-1) != 5 || cv.at(4) != 0 {
		t.Fatal("clamping broken")
	}
	if v := cv.at(0.5); v != 4 {
		t.Fatalf("midpoint: %v", v)
	}
	f := func(u uint16) bool {
		x := 3 * float64(u) / 65535
		v := cv.at(x)
		return v >= 0 && v <= 5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// eyeSquare against hand-computable step curves: ideal rail-to-rail
// inverters with trip at VDD/2 give square eyes of side VDD/2.
func TestEyeSquareStepCurves(t *testing.T) {
	// Steep (but sampled) step at 0.5.
	xs := []float64{0, 0.499, 0.501, 1}
	g1 := &curve{xs: xs, ys: []float64{1, 1, 0, 0}}
	g2 := &curve{xs: xs, ys: []float64{1, 1, 0, 0}}
	e0 := eyeSquare(g1, g2, 0, 1.0)
	e1 := eyeSquare(g1, g2, 1, 1.0)
	if math.Abs(e0-0.5) > 0.01 || math.Abs(e1-0.5) > 0.01 {
		t.Fatalf("step eyes: %v, %v, want 0.5", e0, e1)
	}
}

// Degenerate identical diagonal curves: y = VDD − x for both gives zero
// eyes.
func TestEyeSquareDegenerate(t *testing.T) {
	xs := []float64{0, 0.5, 1}
	g := &curve{xs: xs, ys: []float64{1, 0.5, 0}}
	if e := eyeSquare(g, g, 0, 1.0); math.Abs(e) > 1e-9 {
		t.Fatalf("diagonal eye should be 0, got %v", e)
	}
}

// Every metric kind must be safe for concurrent use (the parallel
// evaluation pool depends on it): goroutines sharing one fresh Metric —
// racing on its engine free list and its once-computed anchor — must
// reproduce sequential evaluation bit for bit.
func TestMetricConcurrentUse(t *testing.T) {
	hold := func() *Metric {
		return &Metric{Cell: Default90nm(), Kind: Hold, Spec: 0.08, Which: AllTransistors()}
	}
	for _, newMetric := range []func() *Metric{
		RNMWorkload, WNMWorkload, ReadCurrentWorkload, hold,
		DualReadCurrentWorkload, AccessTimeWorkload,
	} {
		ref := newMetric()
		t.Run(ref.Kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			pts := make([][]float64, 16)
			want := make([]float64, len(pts))
			for i := range pts {
				pts[i] = make([]float64, ref.Dim())
				for j := range pts[i] {
					pts[i][j] = rng.NormFloat64()
				}
				want[i] = ref.Value(pts[i])
			}
			m := newMetric()
			got := make([]float64, len(pts))
			var wg sync.WaitGroup
			for i, p := range pts {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = m.Value(p)
				}()
			}
			wg.Wait()
			for i := range pts {
				if got[i] != want[i] {
					t.Fatalf("point %d: concurrent %v != sequential %v", i, got[i], want[i])
				}
			}
		})
	}
}
