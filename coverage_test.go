package repro

import (
	"math"
	"testing"

	"repro/internal/surrogate"
)

// TestGSIntervalCoverage runs G-S until RelErr99 ≤ 0.1 (rc-gs-target's
// setting: K=1000, N ≤ 400k) on seeds 1–100 of three metrics whose Pf is
// closed-form, and counts the reported 99% intervals that miss it. Over
// 400 seeds the miss rate reads ~2.5%, so at most 7 misses of 100 is a
// 99.5% binomial bound: a change that biases the chain or the interval
// trips it, and seed noise does not.
func TestGSIntervalCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("300 G-S runs to a target")
	}
	type closedForm interface {
		Metric
		ExactPf() float64
	}
	metrics := []struct {
		name   string
		metric closedForm
	}{
		{"linear 2-D, β 4.7", &surrogate.Linear{W: []float64{1, 1}, B: 4.7 * math.Sqrt2}},
		{"linear 6-D, β 4.7", &surrogate.Linear{W: []float64{1, 1, 1, 1, 1, 1}, B: 4.7 * math.Sqrt(6)}},
		{"shell 6-D, R 7", &surrogate.Shell{M: 6, R: 7}},
	}
	const seeds, maxMisses = 100, 7
	for _, c := range metrics {
		exact := c.metric.ExactPf()
		misses := 0
		for s := int64(1); s <= seeds; s++ {
			res, err := Estimate(c.metric, Options{Method: GS, K: 1000, N: 400_000, Target: 0.1, Seed: s, Workers: 1})
			if err != nil {
				t.Fatalf("%s, seed %d: %v", c.name, s, err)
			}
			if math.Abs(res.Pf-exact) > res.RelErr99*res.Pf {
				misses++
			}
		}
		t.Logf("%s: %d of %d 99%% intervals miss Pf %.4e", c.name, misses, seeds, exact)
		if misses > maxMisses {
			t.Errorf("%s: %d of %d 99%% intervals miss Pf %.4e, want at most %d", c.name, misses, seeds, exact, maxMisses)
		}
	}
}
