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
	s := (&TranSpec{}).defaults()
	if at != s.Stop-s.WLEdge {
		t.Fatalf("dead cell should saturate at the window: %v", at)
	}
}

func TestWriteDelayNominalAndSensitivity(t *testing.T) {
	write := &Metric{Cell: Default90nm(), Kind: WriteDelay}
	wd0 := rawValue(t, write, zero)
	if wd0 <= 0 || wd0 > 200e-12 {
		t.Fatalf("nominal write delay %v outside plausible range", wd0)
	}
	// Weaker access slows the write.
	var d [NumTransistors]float64
	d[M3] = 0.12
	wd1 := rawValue(t, write, d)
	if wd1 <= wd0 {
		t.Fatalf("weak access should slow the write: %v -> %v", wd0, wd1)
	}
}

func TestWriteDelayUnwritableSaturates(t *testing.T) {
	var d [NumTransistors]float64
	d[M3] = 0.8
	d[M5] = -0.5
	wd := rawValue(t, &Metric{Cell: Default90nm(), Kind: WriteDelay}, d)
	s := (&TranSpec{}).defaults()
	if wd != s.Stop-s.WLEdge {
		t.Fatalf("unwritable cell should saturate: %v", wd)
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
