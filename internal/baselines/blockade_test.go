package baselines

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mc"
	"repro/internal/surrogate"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func TestBlockadeOnLinearMetric(t *testing.T) {
	// Pf = Φ(−3.5) ≈ 2.33e-4: rare enough that blockade saves sims, yet
	// common enough that the candidate stream sees many failures.
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 3.5 * math.Sqrt2}
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(1))
	res, err := BlockadeContext(context.Background(), counter, BlockadeOptions{Train: 800, N: 400000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	exact := lin.ExactPf()
	se := math.Sqrt(exact * (1 - exact) / 400000)
	if math.Abs(res.Pf-exact) > 5*se {
		t.Fatalf("blockade Pf %v vs exact %v", res.Pf, exact)
	}
	// The whole point: simulations ≪ candidates.
	total := res.TrainSims + res.TailSims
	if total > int64(res.N)/4 {
		t.Fatalf("blockade did not block: %d sims for %d candidates", total, res.N)
	}
	if res.TailSims == 0 {
		t.Fatal("no tail simulations at all — estimate cannot contain failures")
	}
}

func TestBlockadeExactClassifierStillUnbiased(t *testing.T) {
	// The metric is exactly linear, so the classifier is perfect; the
	// guard band must still simulate every true failure.
	lin := &surrogate.Linear{W: []float64{2, -1}, B: 7}
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(2))
	res, err := BlockadeContext(context.Background(), counter, BlockadeOptions{Train: 500, N: 300000, GuardSigmas: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against plain MC with the same stream size.
	plain, err := mc.ParallelMCContext(context.Background(), lin, 300000, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both are MC tallies of the same probability: they agree within
	// joint noise.
	d := math.Abs(res.Pf - plain.Pf)
	se := plain.StdErr*3 + res.StdErr*3 + 1e-9
	if d > se {
		t.Fatalf("blockade %v vs plain %v (tol %v)", res.Pf, plain.Pf, se)
	}
}

func TestBlockadeValidation(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 0}, B: 3}
	counter := mc.NewCounter(lin)
	rng := rand.New(rand.NewSource(3))
	if _, err := BlockadeContext(context.Background(), counter, BlockadeOptions{Train: 100, N: 0}, rng); err == nil {
		t.Fatal("expected N validation error")
	}
}

func TestBlockadeReportsResidual(t *testing.T) {
	// A strongly nonlinear metric leaves a large classifier residual,
	// which the result must surface.
	sh := &surrogate.Shell{M: 2, R: 2.5}
	counter := mc.NewCounter(sh)
	rng := rand.New(rand.NewSource(4))
	res, err := BlockadeContext(context.Background(), counter, BlockadeOptions{Train: 500, N: 50000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResidualSigma < 0.3 {
		t.Fatalf("shell metric should leave a big linear residual, got %v", res.ResidualSigma)
	}
}

// TestBlockadeReportsProgress: the candidate stream reports progress
// like every other terminal stage, one "progress" event per chunk with
// stage "stage2" and one closing "estimator.done", so a served blockade
// job shows live progress.
func TestBlockadeReportsProgress(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 3.5 * math.Sqrt2}
	reg := telemetry.New()
	var buf strings.Builder
	reg.SetBus(telemetry.NewLogBus(0, &buf))
	opts := BlockadeOptions{Train: 500, N: 3 * blockadeChunk, Telemetry: reg}
	if _, err := BlockadeContext(context.Background(), mc.NewCounter(lin), opts, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	progress, done := 0, 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		switch ev["event"] {
		case wire.EvProgress:
			if ev["stage"] != "stage2" {
				t.Fatalf("progress event for stage %v, want stage2", ev["stage"])
			}
			progress++
		case wire.EvEstimatorDone:
			done++
		}
	}
	if progress != 3 || done != 1 {
		t.Fatalf("%d progress and %d estimator.done events, want 3 and 1", progress, done)
	}
}
