package gibbs

import (
	"context"
	"math/rand"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// chainRun is one chain of a chain-function call: its share of the
// call's samples, simulation budget and workers, its random stream, and
// the call's shared telemetry. Only the chain's own goroutine touches
// it.
type chainRun struct {
	k      int
	budget int64 // simulations the chain may probe; < 0 when uncapped
	spent  int64 // simulations the chain has probed
	o      Options
	rng    *rand.Rand

	ct *chainTelemetry
}

// exhausted reports whether a chain holding n samples has spent its
// budget and may stop; a chain always draws at least 2.
func (c *chainRun) exhausted(n int) bool {
	return c.budget >= 0 && c.spent >= c.budget && n >= 2
}

// record accounts one coordinate update: which coordinate, how its
// interval search ended, and how many simulations it probed.
func (c *chainRun) record(coord int, st intervalStatus, probes int) {
	c.spent += int64(probes)
	c.ct.update(coord, st, probes)
}

// runChains runs one chain-function call after its arguments and start
// point have been checked. It splits the k samples across
// C = min(o.Chains, k) independent chains — chain c draws ⌊k/C⌋, plus
// one when c < k mod C — and o.budget's simulations after the start
// check the same way, runs chain for each, and returns their samples
// pooled in chain order.
//
// Chain 0 draws from rng; chain c ≥ 1 from a generator seeded by the
// c-th rng.Int63(), drawn before any chain starts. So one chain draws
// exactly what the unsplit chain drew, and rng ends in the same state
// however the chains were scheduled. At 2 or more workers the chains
// run at once, at most o.workers at a time (the caller's goroutine
// among them), and each gets ⌊o.workers/C⌋ of them, at least 1, for
// its two-edge interval searches; otherwise they run one after another
// on the caller's goroutine. Every chain is joined before runChains
// returns, and the first error in chain order wins.
func runChains(ctx context.Context, coord Coord, coordNames []string, k int, o *Options, rng *rand.Rand,
	chain func(ctx context.Context, run *chainRun) ([][]float64, error)) ([][]float64, error) {
	ctx, span := telemetry.StartSpan(ctx, o.Telemetry, wire.EvGibbsChain)
	defer span.End()
	span.SetAttr("coord", coord.String())
	n := min(o.Chains, k)
	ct := newChainTelemetry(o.Telemetry, coordNames, k)
	left := o.budget - 1 // the start check spent one
	runs := make([]chainRun, n)
	for c := range runs {
		run := &runs[c]
		run.k = chainShare(k, n, c)
		run.budget = -1
		if o.budget > 0 {
			run.budget = chainShare(left, int64(n), int64(c))
		}
		run.o = *o
		run.o.workers = max(o.workers/n, 1)
		run.rng = rng
		if c > 0 {
			run.rng = rand.New(rand.NewSource(rng.Int63()))
		}
		run.ct = ct
	}

	// Goroutine g of p runs chains g, g+p, g+2p, …; the caller's
	// goroutine is g = 0.
	out := make([][][]float64, n)
	errs := make([]error, n)
	p := max(min(n, o.workers), 1)
	work := func(g int) {
		for c := g; c < n; c += p {
			out[c], errs[c] = chain(ctx, &runs[c])
		}
	}
	var wg sync.WaitGroup
	for g := 1; g < p; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(g)
		}()
	}
	work(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	samples := make([][]float64, 0, k)
	for _, s := range out {
		samples = append(samples, s...)
	}
	span.SetAttr("samples", len(samples))
	ct.done(coord, out)
	return samples, nil
}

// chainShare is chain c's share when runChains splits total (samples or
// simulations) across n chains: ⌊total/n⌋, plus one when c < total mod n.
func chainShare[T int | int64](total, n, c T) T {
	if c < total%n {
		return total/n + 1
	}
	return total / n
}

// PooledESS returns the chain ESS that the "gibbs.chain" event and the
// chain_ess gauge report for a chain-function call run with o (nil for
// the defaults), from the samples it returned: the pool is cut back into
// its chains by runChains' split rule and each chain's ESS summed. It
// fails with ErrShortChain on an empty pool or a chain too short to
// measure; a pool whose chains a budget stopped early does not split.
func PooledESS(samples [][]float64, o *Options) (float64, error) {
	k := len(samples)
	if k == 0 {
		return 0, ErrShortChain
	}
	n := min(o.defaults().Chains, k)
	chains := make([][][]float64, n)
	for c := range chains {
		m := chainShare(k, n, c)
		chains[c], samples = samples[:m], samples[m:]
	}
	ess, _, err := chainsESS(chains)
	return ess, err
}
