package sram

import (
	"math"
	"testing"
)

func TestAccessTimeNominal(t *testing.T) {
	at := rawValue(t, &Metric{Cell: FastRead90nm(), Kind: AccessTime}, zero)
	if at < 5e-12 || at > 100e-12 {
		t.Fatalf("nominal access time %v outside plausible range", at)
	}
}

func TestAccessTimeMonotoneInReadPath(t *testing.T) {
	access := &Metric{Cell: FastRead90nm(), Kind: AccessTime}
	prev := -1.0
	for _, dv := range []float64{-0.06, 0, 0.06, 0.12} {
		var d [NumTransistors]float64
		d[M3] = dv
		at := rawValue(t, access, d)
		if at <= prev {
			t.Fatalf("access time should grow with weaker access: %v then %v", prev, at)
		}
		prev = at
	}
}

func TestAccessTimeSaturatesOnDeadCell(t *testing.T) {
	var d [NumTransistors]float64
	d[M3] = 1.0 // access never turns on
	at := rawValue(t, &Metric{Cell: FastRead90nm(), Kind: AccessTime}, d)
	if at != accessStop-accessWLEdge {
		t.Fatalf("dead cell should saturate at the window: %v", at)
	}
}

func TestTranMetricConvention(t *testing.T) {
	m := AccessTimeWorkload()
	if m.Dim() != 2 {
		t.Fatal("dim")
	}
	// Nominal passes with margin.
	if v := m.Value([]float64{0, 0}); v <= 0 {
		t.Fatalf("nominal should pass: %v", v)
	}
	// Deep weak corner fails.
	if v := m.Value([]float64{6, 6}); v >= 0 {
		t.Fatalf("6σ/6σ corner should fail: %v", v)
	}
}

func TestTranMetricSmooth(t *testing.T) {
	// The interpolated crossing must vary smoothly (no step plateaus):
	// consecutive evaluations along a line should all differ.
	m := AccessTimeWorkload()
	var prev float64 = math.Inf(-1)
	for _, x := range []float64{0, 0.5, 1.0, 1.5, 2.0} {
		v := m.Value([]float64{x, x})
		if v == prev {
			t.Fatalf("metric plateaued at x=%v", x)
		}
		if v > prev && x > 0 {
			t.Fatalf("margin should shrink along the weak diagonal at x=%v", x)
		}
		prev = v
	}
}

func TestTranMetricDimPanics(t *testing.T) {
	m := AccessTimeWorkload()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Value([]float64{0})
}

// TestAccessValueAllocs bounds the allocations of one access Value at
// the nominal point. Its 21 transient steps solve into SolveTran's two
// step buffers and one operating point, so the count does not grow with
// the steps (it was 47 when every step allocated a vector and a point).
func TestAccessValueAllocs(t *testing.T) {
	m := AccessTimeWorkload()
	x := make([]float64, m.Dim())
	if n := testing.AllocsPerRun(20, func() { m.Value(x) }); n > 10 {
		t.Fatalf("an access Value makes %v allocations, want at most 10", n)
	}
}
