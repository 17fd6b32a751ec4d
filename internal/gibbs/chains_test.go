package gibbs

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mc"
	"repro/internal/sram"
	"repro/internal/surrogate"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// samplesSHA256 hashes the samples' float64 bits, little-endian, in
// order.
func samplesSHA256(samples [][]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range samples {
		for _, v := range x {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func linear3() mc.Metric { return &surrogate.Linear{W: []float64{1, 1, 1}, B: 7} }

// TestChainsOnePinned proves the paper's single chain is still
// reachable bit for bit: at Chains: 1 the two-stage flow (Algorithm 4
// start, K=200 samples or a Stage1Budget, N=2000) reproduces the Gibbs
// samples, Pf, RelErr99 and stage-1 cost of one chain, at 1 and 2
// workers. The rows were recorded before the chains were split, and
// re-recorded when the walk's tail cut moved the chain's probes; the
// readcurrent rows' samples, Pf and RelErr99 also moved in low bits
// when softplusSq moved to one exponential.
func TestChainsOnePinned(t *testing.T) {
	for _, tc := range []struct {
		name    string
		metric  func() mc.Metric
		coord   Coord
		seed    int64
		k       int
		budget  int64
		sha     string
		pf, rel uint64
		stage1  int64
		n       int
	}{
		{"linear/G-C", linear3, Cartesian, 11, 200, 0,
			"09d56c95a5e55b9739465551c0c04afb783989494e3c1e1e9a5bbe9510719356", 0x3efa01450f1706e5, 0x3fb7ec71dced3d4e, 1751, 200},
		{"linear/G-S", linear3, Spherical, 11, 200, 0,
			"9c48cc4313673ee20f1ddead8e2f0f01fa0c0798e19d9ea1f7df84770561d112", 0x3efadb67aaf05966, 0x3fac7f536b0526fe, 2252, 200},
		{"readcurrent/G-C", readCurrent, Cartesian, 3, 200, 0,
			"4f674f662b9c5e57ad61e1526542aad59521fae9b28fb8f19857f6fe71dbb47b", 0x3ec608730523fa04, 0x3fc0c9fb7e29e763, 1597, 200},
		{"readcurrent/G-S", readCurrent, Spherical, 3, 200, 0,
			"69155d70ff18415bb26ce4a9e7e348bde430154a542d97f231f46b7c0304be06", 0x3ec5d900934588f1, 0x3fb56c5b4a4cec0e, 2115, 200},
		{"linear/G-C/budget", linear3, Cartesian, 11, 1000, 800,
			"ea75c1223e01ba7a9015124334de55c83025bf0027e6f0783f6f3ef8b8a41dfe", 0x3ef89fd0e06caae1, 0x3fd81fc7584240f5, 806, 89},
		{"readcurrent/G-S/budget", readCurrent, Spherical, 3, 1000, 1500,
			"b6463a47abebf665336c06c5b377362921269e4bf1b80b882b842e8e813abda8", 0x3ec5af7d894f0b77, 0x3fb52b2731b0ec18, 1504, 140},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				res, err := TwoStageContext(context.Background(), mc.NewCounter(tc.metric()), TwoStageOptions{
					Coord: tc.coord, K: tc.k, N: 2000, Workers: workers, Stage1Budget: tc.budget,
					Chain: &Options{Chains: 1},
				}, rand.New(rand.NewSource(tc.seed)))
				if err != nil {
					t.Fatal(err)
				}
				if got := samplesSHA256(res.Samples); got != tc.sha || len(res.Samples) != tc.n {
					t.Fatalf("workers=%d: %d samples hashing to %s, want %d hashing to %s", workers, len(res.Samples), got, tc.n, tc.sha)
				}
				if pf, rel := math.Float64bits(res.Pf), math.Float64bits(res.RelErr99); pf != tc.pf || rel != tc.rel {
					t.Fatalf("workers=%d: Pf %#x RelErr99 %#x, want %#x and %#x", workers, pf, rel, tc.pf, tc.rel)
				}
				if res.Stage1Sims != tc.stage1 {
					t.Fatalf("workers=%d: %d stage-1 sims, want %d", workers, res.Stage1Sims, tc.stage1)
				}
			}
		})
	}
}

func readCurrent() mc.Metric { return sram.ReadCurrentWorkload() }

// TestChainsWorkersAgree runs 2 and 3 chains of 61 samples (so the
// split has a remainder) from a pinned start at 1, 2 and 7 workers. The
// samples must be the chains' own, pooled in chain order — chain 0 from
// the caller's rng after the other chains' seeds were drawn, chain c ≥ 1
// from the c-th seed, each a one-chain call on its own — and the samples,
// Stage1Sims and Pf must be bit-identical at every worker count.
func TestChainsWorkersAgree(t *testing.T) {
	const k, seed = 61, 17
	start := []float64{3, 3, 3}
	for _, chains := range []int{2, 3} {
		for _, coord := range []Coord{Spherical, Cartesian} {
			t.Run(fmt.Sprintf("%s_chains%d", coord, chains), func(t *testing.T) {
				chain := CartesianChainContext
				if coord == Spherical {
					chain = SphericalChainContext
				}
				rng := rand.New(rand.NewSource(seed))
				rngs := []*rand.Rand{rng}
				for c := 1; c < chains; c++ {
					rngs = append(rngs, rand.New(rand.NewSource(rng.Int63())))
				}
				var want [][]float64
				for c, r := range rngs {
					n := k / chains
					if c < k%chains {
						n++
					}
					s, err := chain(context.Background(), linear3(), start, n, &Options{Chains: 1}, r)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, s...)
				}

				var ref *TwoStageResult
				for _, workers := range []int{1, 2, 7} {
					res, err := TwoStageContext(context.Background(), mc.NewCounter(linear3()), TwoStageOptions{
						Coord: coord, K: k, N: 2000, Workers: workers, StartPoint: start,
						Chain: &Options{Chains: chains},
					}, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					sameSamples(t, fmt.Sprintf("workers=%d", workers), res.Samples, want)
					if ref == nil {
						ref = res
						continue
					}
					if res.Stage1Sims != ref.Stage1Sims || math.Float64bits(res.Pf) != math.Float64bits(ref.Pf) {
						t.Fatalf("workers=%d: Pf %v after %d stage-1 sims, want %v after %d",
							workers, res.Pf, res.Stage1Sims, ref.Pf, ref.Stage1Sims)
					}
				}
			})
		}
	}
}

// TestChainsBudgetWorkersAgree caps stage 1 with Stage1Budget at two
// chains, on a slow metric so that at 7 workers each chain also forks
// its interval edges. Each chain stops on its own share of what
// Algorithm 4 left, so the samples and Stage1Sims must be identical at
// 1, 2 and 7 workers, and the budget, not K, must end the chains.
func TestChainsBudgetWorkersAgree(t *testing.T) {
	const k, budget = 1000, 400
	for _, coord := range []Coord{Spherical, Cartesian} {
		t.Run(coord.String(), func(t *testing.T) {
			var ref *TwoStageResult
			for _, workers := range []int{1, 2, 7} {
				res, _, err := TwoStagePrefix(context.Background(), mc.NewCounter(&overlapMetric{Metric: linear3()}), TwoStageOptions{
					Coord: coord, K: k, N: 1, Workers: workers, Stage1Budget: budget,
					Chain: &Options{Chains: 2},
				}, rand.New(rand.NewSource(23)))
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Samples) >= k || res.Stage1Sims < budget {
					t.Fatalf("workers=%d: %d samples after %d stage-1 sims; the budget of %d did not end the chains",
						workers, len(res.Samples), res.Stage1Sims, budget)
				}
				if ref == nil {
					ref = res
					continue
				}
				if res.Stage1Sims != ref.Stage1Sims {
					t.Fatalf("workers=%d: %d stage-1 sims, want %d", workers, res.Stage1Sims, ref.Stage1Sims)
				}
				sameSamples(t, fmt.Sprintf("workers=%d", workers), res.Samples, ref.Samples)
			}
		})
	}
}

// TestChainsOneTelemetryStream runs two chains at once and reads the
// event log: stage-1 progress counts the pooled samples, so its n never
// decreases, updates_total is K, and the call emits one gibbs.chain
// event for both chains.
func TestChainsOneTelemetryStream(t *testing.T) {
	const k = 300
	reg := telemetry.New()
	var buf strings.Builder
	reg.SetBus(telemetry.NewLogBus(0, &buf))
	_, _, err := TwoStagePrefix(context.Background(), mc.NewCounter(readCurrent()), TwoStageOptions{
		Coord: Spherical, K: k, N: 1, Workers: 2, Telemetry: reg,
		Chain: &Options{Chains: 2},
	}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	lastN, progress, chainEvents := 0, 0, 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		switch ev["event"] {
		case wire.EvProgress:
			if ev["stage"] != "stage1" {
				continue
			}
			n := int(ev["n"].(float64))
			if n < lastN {
				t.Fatalf("stage-1 progress went from n=%d back to %d", lastN, n)
			}
			lastN = n
			progress++
		case wire.EvGibbsChain:
			chainEvents++
			if ev["chains"] != 2.0 || ev["k"] != float64(k) {
				t.Fatalf("gibbs.chain event reads chains=%v k=%v, want 2 and %d", ev["chains"], ev["k"], k)
			}
		}
	}
	if progress < k/progressStride || chainEvents != 1 {
		t.Fatalf("%d stage-1 progress events and %d gibbs.chain events, want %d and 1", progress, chainEvents, k/progressStride)
	}
	if got := reg.Scope(wire.ScopeGibbs).Counter("updates_total").Value(); got != k {
		t.Fatalf("updates_total = %d, want %d", got, k)
	}
}

// TestPooledESSMatchesChainGauge cuts a pool of uneven chains (301
// samples over 3 chains) back into its chains and requires the summed
// ESS to be the chain_ess gauge's value, bit for bit, for both chain
// functions. An empty pool has no chain to measure.
func TestPooledESSMatchesChainGauge(t *testing.T) {
	const k = 301
	if _, err := PooledESS(nil, nil); !errors.Is(err, ErrShortChain) {
		t.Fatalf("PooledESS of an empty pool: %v, want ErrShortChain", err)
	}
	for _, coord := range []Coord{Cartesian, Spherical} {
		t.Run(coord.String(), func(t *testing.T) {
			reg := telemetry.New()
			opts := &Options{Chains: 3, Telemetry: reg}
			chain := CartesianChainContext
			if coord == Spherical {
				chain = SphericalChainContext
			}
			samples, err := chain(context.Background(), linear3(), []float64{3, 3, 3}, k, opts, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			got, err := PooledESS(samples, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := reg.Scope(wire.ScopeGibbs).Gauge("chain_ess").Value()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("PooledESS %v, chain_ess gauge %v", got, want)
			}
		})
	}
}
