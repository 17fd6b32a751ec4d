package repro

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/mc"
	"repro/internal/surrogate"
)

// canonical renders a Result for bit-level comparison: wall-clock fields
// zeroed (they are the one legitimately non-deterministic part of a
// run), everything else — estimates, moments, weights, traces, the full
// report — compared through exact JSON, which round-trips float64 bits.
func canonical(t *testing.T, res *Result) string {
	t.Helper()
	r := *res
	r.Stage1Seconds, r.Stage2Seconds = 0, 0
	if r.Report != nil {
		r.Report = r.Report.Deterministic()
	}
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// splits enumerates coverings of [0, total): single range, halves, three
// uneven pieces, and a deliberately shuffled order (folds sort by Start).
func splits(total int) [][]ShardRange {
	if total == 1 {
		return [][]ShardRange{{{Lo: 0, Hi: 1}}}
	}
	a, b := total/3, 2*total/3
	return [][]ShardRange{
		{{Lo: 0, Hi: total}},
		{{Lo: 0, Hi: total / 2}, {Lo: total / 2, Hi: total}},
		{{Lo: 0, Hi: a}, {Lo: a, Hi: b}, {Lo: b, Hi: total}},
		{{Lo: b, Hi: total}, {Lo: 0, Hi: a}, {Lo: a, Hi: b}},
	}
}

// TestShardFoldBitIdentical is the distributed-serving equivalence
// claim: for every method, evaluating the terminal stage as disjoint
// partials — in any grouping, each with its own replayed prefix — and
// folding must reproduce the single-node Result bit for bit, report
// included.
func TestShardFoldBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, method := range AllMethods() {
		t.Run(string(method), func(t *testing.T) {
			t.Parallel()
			// Brute-force methods need a reachable failure region at
			// N=3000 — zero failures would leave RelErr99 infinite and
			// unmarshalable, and prove nothing about the fold.
			b := 5.5
			if method == MC || method == Blockade {
				b = 2.5
			}
			lin := &surrogate.Linear{W: []float64{1, 1}, B: b}
			opts := Options{Method: method, Seed: 11, K: 300, N: 3000}
			want, err := EstimateContext(ctx, lin, opts)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON := canonical(t, want)
			total, err := ShardPlan(opts)
			if err != nil {
				t.Fatal(err)
			}
			for si, ranges := range splits(total) {
				// One EstimatePartial call per range: each worker
				// replays the prefix independently, as real nodes do.
				var prefix Prefix
				var chunks []mc.Partial
				for wi, r := range ranges {
					run, err := EstimatePartial(ctx, lin, opts, []ShardRange{r})
					if err != nil {
						t.Fatalf("split %d: %v", si, err)
					}
					if wi == 0 {
						prefix = run.Prefix
					} else if run.Prefix.Digest() != prefix.Digest() {
						t.Fatalf("split %d: prefix digest diverged between workers", si)
					}
					chunks = append(chunks, run.Chunks...)
				}
				got, err := FoldPartials(opts, prefix, chunks, 0)
				if err != nil {
					t.Fatalf("split %d: fold: %v", si, err)
				}
				if gotJSON := canonical(t, got); gotJSON != wantJSON {
					t.Fatalf("split %d: folded result differs from single-node\n got: %s\nwant: %s", si, gotJSON, wantJSON)
				}
			}
		})
	}
}

// A traced importance-sampling run shards too — the trace is part of the
// index-ordered replay.
func TestShardFoldWithTrace(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 5}
	opts := Options{Method: GS, Seed: 3, K: 300, N: 2000, TraceEvery: 512}
	want, err := Estimate(lin, opts)
	if err != nil {
		t.Fatal(err)
	}
	run, err := EstimatePartial(context.Background(), lin, opts, []ShardRange{{Lo: 0, Hi: 2000}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := FoldPartials(opts, run.Prefix, run.Chunks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trace) == 0 || canonical(t, got) != canonical(t, want) {
		t.Fatalf("traced fold differs\n got: %s\nwant: %s", canonical(t, got), canonical(t, want))
	}
}

// An until-target run is a prefix of the fold: stopped at n samples, it
// equals bit for bit the fixed n-sample run folded from partials.
func TestUntilTargetIsFoldPrefix(t *testing.T) {
	ctx := context.Background()
	for _, method := range []Method{MIS, MNIS, GC, GS, MC, Blockade} {
		t.Run(string(method), func(t *testing.T) {
			t.Parallel()
			b := 5.5
			if method == MC || method == Blockade {
				b = 2.5
			}
			lin := &surrogate.Linear{W: []float64{1, 1}, B: b}
			const limit = 1 << 20
			opts := Options{Method: method, Seed: 11, K: 300, N: limit, Target: 0.1}
			want, err := EstimateContext(ctx, lin, opts)
			if err != nil {
				t.Fatal(err)
			}
			n := want.N
			if n >= limit || want.RelErr99 > opts.Target {
				t.Fatalf("until-target run did not stop early: N=%d relerr99 %v", n, want.RelErr99)
			}
			fixed := opts
			fixed.Target, fixed.N = 0, n
			run, err := EstimatePartial(ctx, lin, fixed, []ShardRange{{Lo: 0, Hi: n}})
			if err != nil {
				t.Fatal(err)
			}
			got, err := FoldPartials(fixed, run.Prefix, run.Chunks, 0)
			if err != nil {
				t.Fatal(err)
			}
			if gotJSON, wantJSON := canonical(t, got), canonical(t, want); gotJSON != wantJSON {
				t.Fatalf("fold of [0,%d) differs from the until-target run\n got: %s\nwant: %s", n, gotJSON, wantJSON)
			}
		})
	}
}

// Brute-force MC is one index-seeded engine: neither the worker count nor
// a trace stride may change its estimate.
func TestMCIndependentOfWorkersAndTrace(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 2.5}
	var want string
	for _, workers := range []int{1, 4} {
		for _, trace := range []int{0, 100} {
			res, err := Estimate(lin, Options{Method: MC, Seed: 11, N: 3000, Workers: workers, TraceEvery: trace})
			if err != nil {
				t.Fatal(err)
			}
			if trace > 0 && len(res.Trace) != 30 {
				t.Fatalf("workers=%d: %d trace points, want 30", workers, len(res.Trace))
			}
			res.Trace = nil
			got := canonical(t, res)
			if want == "" {
				want = got
			} else if got != want {
				t.Fatalf("workers=%d trace=%d changed the estimate\n got: %s\nwant: %s", workers, trace, got, want)
			}
		}
	}
}

func TestShardPlanRejections(t *testing.T) {
	cases := []Options{
		{Method: GS, N: 1000, Target: 0.1}, // until-target
	}
	for _, opts := range cases {
		if _, err := ShardPlan(opts); !errors.Is(err, ErrNotShardable) {
			t.Fatalf("%+v: want ErrNotShardable, got %v", opts, err)
		}
	}
	if _, err := ShardPlan(Options{Method: "nope", N: 10}); err == nil {
		t.Fatal("invalid method accepted")
	}
	if total, err := ShardPlan(Options{Method: Subset, N: 4000}); err != nil || total != 1 {
		t.Fatalf("subset plan: %d, %v", total, err)
	}
}

func TestFoldRejectsBadCover(t *testing.T) {
	lin := &surrogate.Linear{W: []float64{1, 1}, B: 5.5}
	opts := Options{Method: GS, Seed: 11, K: 300, N: 3000}
	run, err := EstimatePartial(context.Background(), lin, opts, []ShardRange{{Lo: 0, Hi: 1500}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FoldPartials(opts, run.Prefix, run.Chunks, 0); !errors.Is(err, mc.ErrBadCover) {
		t.Fatalf("gap accepted: %v", err)
	}
	if _, err := EstimatePartial(context.Background(), lin, opts, []ShardRange{{Lo: -1, Hi: 5}}); !errors.Is(err, mc.ErrBadRange) {
		t.Fatal("bad range accepted")
	}
}

func TestSplitRanges(t *testing.T) {
	for _, tc := range []struct{ total, parts, grain, want int }{
		{10000, 4, 0, 4}, {10000, 3, 256, 3}, {100, 8, 256, 1}, {1, 4, 0, 1},
	} {
		rs := SplitRanges(tc.total, tc.parts, tc.grain)
		if len(rs) == 0 || len(rs) > tc.parts {
			t.Fatalf("SplitRanges(%d,%d,%d) = %v", tc.total, tc.parts, tc.grain, rs)
		}
		next := 0
		for _, r := range rs {
			if r.Lo != next || r.Hi <= r.Lo {
				t.Fatalf("not a tiling: %v", rs)
			}
			next = r.Hi
		}
		if next != tc.total {
			t.Fatalf("covers %d of %d", next, tc.total)
		}
	}
}
