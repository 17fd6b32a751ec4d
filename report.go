package repro

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/gibbs"
	"repro/internal/telemetry"
)

// z90 is the two-sided 90%-confidence Normal quantile used by the
// paper-style figure of merit (simulations to reach 90% confidence at
// 10% relative error).
const z90 = 1.6448536269514722

// RunReport bundles the statistical health diagnostics of one estimation
// run: chain convergence (split-chain Gelman–Rubin R-hat, chain ESS),
// importance-weight health (weight ESS, max-weight fraction, Hill tail
// index), the per-stage cost split, and the paper's figure of merit —
// projected simulations to reach 90% confidence. It is attached to every
// successful Result and is what the -report CLI flag and the job
// service's /report endpoint render.
//
// Every statistical field is derived deterministically from the run's
// samples, so for a fixed seed the report is byte-identical across
// worker counts once the wall-clock fields are zeroed (Deterministic).
type RunReport struct {
	// Method and Seed identify the run.
	Method string `json:"method"`
	Seed   int64  `json:"seed"`

	// Pf, StdErr and RelErr99 restate the headline estimate; RelErr99
	// is null until the estimate is nonzero (it would be +Inf).
	Pf       float64  `json:"pf"`
	StdErr   float64  `json:"stderr"`
	RelErr99 *float64 `json:"relerr99"`

	// RHat is the worst per-coordinate split-chain Gelman–Rubin
	// statistic of the first-stage Gibbs samples (Gibbs methods only;
	// null otherwise or when the chain is degenerate — RHatNote then
	// says why). The samples are halved in pool order, so with the
	// default two chains it compares one chain with the other: values
	// above 1.1 mean the chains disagree, for example because they sit
	// in different lobes of the failure region. It does not measure
	// whether the estimate's interval covers the truth.
	RHat     *float64 `json:"rhat,omitempty"`
	RHatNote string   `json:"rhat_note,omitempty"`
	// ChainESS is the autocorrelation-adjusted effective sample size of
	// the first-stage Gibbs samples, summed over the chains: the value
	// of the gibbs.chain event's ess and the gibbs_chain_ess gauge
	// (Gibbs methods only).
	ChainESS *float64 `json:"chain_ess,omitempty"`

	// WeightESS is the Kish effective sample size of the second-stage
	// importance weights; MaxWeightFrac the share of the estimate
	// carried by the single largest weight; WeightTailIndex the Hill
	// tail-index estimate over the largest weights (≤ 1 flags a
	// heavy-tailed, unreliable weight distribution; null when too few
	// distinct weights were observed).
	WeightESS       float64  `json:"weight_ess"`
	MaxWeightFrac   float64  `json:"max_weight_frac"`
	WeightTailIndex *float64 `json:"weight_tail_index,omitempty"`

	// Cost accounting: the simulation split the paper's tables use,
	// plus wall time per stage. The seconds fields are the only
	// non-deterministic part of the report.
	Stage1Sims    int64   `json:"stage1_sims"`
	Stage2Sims    int64   `json:"stage2_sims"`
	TotalSims     int64   `json:"total_sims"`
	Stage1Seconds float64 `json:"stage1_seconds"`
	Stage2Seconds float64 `json:"stage2_seconds"`
	TotalSeconds  float64 `json:"total_seconds"`

	// SimsTo90 is the paper-style figure of merit: the projected total
	// simulation count for the run to reach 90% confidence (±10% at
	// z = 1.645), assuming the standard error keeps its 1/√N decay.
	// 0 when the run has no estimate to project from.
	SimsTo90 int64 `json:"sims_to_90,omitempty"`

	// Warnings lists human-readable statistical health flags (empty for
	// a clean run).
	Warnings []string `json:"warnings,omitempty"`
}

// buildReport derives the run-report from a finished result. It never
// fails: degenerate inputs turn into null fields and warnings.
func buildReport(res *Result, o Options, totalSeconds float64) *RunReport {
	r := &RunReport{
		Method: string(o.Method),
		Seed:   o.Seed,
		Pf:     res.Pf,
		StdErr: res.StdErr,

		WeightESS: res.WeightESS,

		Stage1Sims:    res.Stage1Sims,
		Stage2Sims:    res.Stage2Sims,
		TotalSims:     res.TotalSims,
		Stage1Seconds: res.Stage1Seconds,
		Stage2Seconds: res.Stage2Seconds,
		TotalSeconds:  totalSeconds,
	}
	if v := res.RelErr99; !math.IsNaN(v) && !math.IsInf(v, 0) {
		r.RelErr99 = &v
	}
	if res.Failures == 0 && res.N > 0 {
		r.warn("no failures observed: the estimate is zero and its relative error unbounded")
	}
	if o.Target > 0 && res.N >= o.N && res.RelErr99 > o.Target {
		r.warn(fmt.Sprintf("until-target run spent its cap of %d samples with relerr99 %.3g still above the target %.3g — raise N or check the distortion", o.N, res.RelErr99, o.Target))
	}

	if len(res.GibbsSamples) > 0 {
		if rhat, err := gibbs.MaxSplitRHat(res.GibbsSamples); err != nil {
			r.RHatNote = err.Error()
		} else {
			r.RHat = &rhat
			if rhat > 1.1 {
				r.warn(fmt.Sprintf("Gibbs chains disagree: split R-hat %.3f > 1.1 — the two stage-1 chains sample different parts of the failure region (for example, different lobes)", rhat))
			}
		}
		if ess, err := gibbs.PooledESS(res.GibbsSamples, nil); err == nil {
			r.ChainESS = &ess
		}
	}

	// Weight health. Σw = Pf·N because Pf is the mean weight.
	if wsum := res.Pf * float64(res.N); wsum > 0 && res.MaxWeight > 0 {
		r.MaxWeightFrac = res.MaxWeight / wsum
		if r.MaxWeightFrac > telemetry.WeightBlowupFrac {
			r.warn(fmt.Sprintf("a single importance weight carries %.0f%% of the estimate — the distortion may miss part of the failure region", 100*r.MaxWeightFrac))
		}
	}
	if res.N > 0 && res.Failures > 0 && r.WeightESS > 0 && r.WeightESS < 0.01*float64(res.N) {
		r.warn(fmt.Sprintf("weight ESS %.1f is below 1%% of the %d second-stage samples", r.WeightESS, res.N))
	}
	if alpha, ok := hillTailIndex(res.TopWeights); ok {
		r.WeightTailIndex = &alpha
		if alpha <= 1 {
			r.warn(fmt.Sprintf("heavy-tailed importance weights (Hill tail index %.2f ≤ 1): the variance estimate is unreliable", alpha))
		}
	}

	r.SimsTo90 = simsTo90(res)
	return r
}

// warn appends one warning line.
func (r *RunReport) warn(msg string) { r.Warnings = append(r.Warnings, msg) }

// hillTailIndex computes the Hill estimator of the weight tail index
// from the largest observed weights (descending order):
// α̂ = (k−1) / Σ_{i<k} ln(w_i / w_k). It needs at least five distinct
// positive weights to say anything; ok is false otherwise.
func hillTailIndex(top []float64) (alpha float64, ok bool) {
	const minTail = 5
	if len(top) < minTail {
		return 0, false
	}
	wk := top[len(top)-1]
	if wk <= 0 {
		return 0, false
	}
	s := 0.0
	for _, w := range top[:len(top)-1] {
		s += math.Log(w / wk)
	}
	if s <= 0 { // all weights equal — no tail to measure
		return 0, false
	}
	return float64(len(top)-1) / s, true
}

// simsTo90 projects the total simulation count needed to reach the
// paper's 90%-confidence bar (z90·stderr ≤ 10%·Pf), assuming the
// standard error keeps its 1/√N decay: N′ = N·(z90·stderr/(0.1·Pf))²,
// plus the already-spent first stage. Runs with no estimate (or no
// stderr) report 0.
func simsTo90(res *Result) int64 {
	if res.Pf <= 0 || res.StdErr <= 0 || res.N <= 0 {
		return 0
	}
	if math.IsNaN(res.StdErr) || math.IsInf(res.StdErr, 0) {
		return 0
	}
	ratio := z90 * res.StdErr / (0.1 * res.Pf)
	n2 := float64(res.N) * ratio * ratio
	if n2 > math.MaxInt64/2 {
		return 0
	}
	return res.Stage1Sims + int64(math.Ceil(n2))
}

// Deterministic returns a copy of the report with every wall-clock field
// zeroed — the part that is byte-identical across worker counts and
// machines for a fixed seed.
func (r *RunReport) Deterministic() *RunReport {
	c := *r
	c.Stage1Seconds, c.Stage2Seconds, c.TotalSeconds = 0, 0, 0
	return &c
}

// WriteJSON renders the report as indented JSON.
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the human-readable summary the CLIs print.
func (r *RunReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "run report (%s, seed %d)\n", r.Method, r.Seed)
	if r.RelErr99 != nil {
		fmt.Fprintf(w, "  estimate   Pf %.6e  stderr %.3e  relerr99 %.2f%%\n", r.Pf, r.StdErr, 100**r.RelErr99)
	} else {
		fmt.Fprintf(w, "  estimate   Pf %.6e  stderr %.3e  relerr99 n/a\n", r.Pf, r.StdErr)
	}
	switch {
	case r.RHat != nil && r.ChainESS != nil:
		fmt.Fprintf(w, "  chain      split R-hat %.4f  ESS %.1f\n", *r.RHat, *r.ChainESS)
	case r.RHat != nil:
		fmt.Fprintf(w, "  chain      split R-hat %.4f\n", *r.RHat)
	case r.RHatNote != "":
		fmt.Fprintf(w, "  chain      R-hat unavailable: %s\n", r.RHatNote)
	}
	fmt.Fprintf(w, "  weights    ESS %.1f  max frac %.4f", r.WeightESS, r.MaxWeightFrac)
	if r.WeightTailIndex != nil {
		fmt.Fprintf(w, "  tail index %.2f", *r.WeightTailIndex)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  cost       stage1 %d sims (%.2fs)  stage2 %d sims (%.2fs)  total %d (%.2fs)\n",
		r.Stage1Sims, r.Stage1Seconds, r.Stage2Sims, r.Stage2Seconds, r.TotalSims, r.TotalSeconds)
	if r.SimsTo90 > 0 {
		fmt.Fprintf(w, "  sims to 90%% confidence: %d\n", r.SimsTo90)
	}
	for _, msg := range r.Warnings {
		fmt.Fprintf(w, "  warning: %s\n", msg)
	}
}
