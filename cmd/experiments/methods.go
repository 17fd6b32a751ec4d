package main

import (
	"context"
	"encoding/csv"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/baselines"
	"repro/internal/gibbs"
	"repro/internal/mc"
	"repro/internal/model"
	"repro/internal/stat"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// methodNames is the paper's comparison order.
var methodNames = []string{"MIS", "MNIS", "G-C", "G-S"}

// budgets carries the paper's stage sizing (§V: MIS 5000 / MNIS 1000
// first-stage simulations; G-C/G-S 5000 including the starting-point
// model).
type budgets struct {
	misStage1  int
	mnisTrainN int
	gibbsSims  int64
	stage2     int // fixed second-stage size (trace experiments)
	stage2Max  int // cap for until-target runs
	traceEvery int // second-stage snapshot stride
	gibbsKCap  int // upper bound on Gibbs sample count
	workers    int // evaluation-pool size (0 = all cores)
	tele       *telemetry.Registry
}

func defaultBudgets(c config) budgets {
	return budgets{
		misStage1:  c.scale(5000, 300),
		mnisTrainN: c.scale(900, 100),
		gibbsSims:  int64(c.scale(5000, 300)),
		stage2:     c.scale(20000, 1000),
		stage2Max:  c.scale(100000, 4000),
		traceEvery: c.scale(500, 100),
		gibbsKCap:  1 << 20,
		workers:    c.workers,
		tele:       c.tele,
	}
}

// methodRun is the uniform result row used by every experiment.
type methodRun struct {
	name       string
	pf         float64
	relErr     float64
	stage1     int64
	stage2     int64
	trace      []mc.TracePoint
	distortion *stat.MVNormal
	gibbs      [][]float64
	mix        *mixing // chain mixing quality (G-C/G-S only)
}

// mixing summarizes the quality of one Gibbs chain: effective sample
// size, worst per-coordinate integrated autocorrelation time, and the
// fraction of coordinate updates that actually resampled (drew from a
// failure interval).
type mixing struct {
	ess, tau, acceptance float64
}

// paperChain runs the paper's single Gibbs chain (Algorithm 5), so the
// tables and figures keep the paper's setup rather than the library's
// default of two pooled chains.
func paperChain() *gibbs.Options { return &gibbs.Options{Chains: 1} }

// chainCounterValues snapshots the gibbs-scope interval-search counters;
// taking before/after deltas isolates one run on a shared registry.
func chainCounterValues(reg *telemetry.Registry) (updates, resampled int64) {
	s := reg.Scope(wire.ScopeGibbs)
	return s.Counter("updates_total").Value(), s.Counter("resampled_total").Value()
}

// newMixing derives the mixing row from the chain's counter deltas and
// sample stream.
func newMixing(reg *telemetry.Registry, updates0, resampled0 int64, samples [][]float64) *mixing {
	m := &mixing{}
	u1, r1 := chainCounterValues(reg)
	if du := u1 - updates0; du > 0 {
		m.acceptance = float64(r1-resampled0) / float64(du)
	}
	if ess, err := gibbs.EffectiveSampleSize(samples); err == nil {
		m.ess = ess
		m.tau = float64(len(samples)) / ess
	}
	return m
}

// runMethod executes one method with second-stage size n — or, when
// target is positive, until the 99% relative error reaches target with n
// as the cap (Table I style).
func runMethod(ctx context.Context, name string, metric mc.Metric, b budgets, n int, target float64, traceEvery mc.TraceEvery, seed int64) (*methodRun, error) {
	counter := mc.NewCounter(metric)
	rng := rand.New(rand.NewSource(seed))
	out := &methodRun{name: name}
	switch name {
	case "MIS":
		r, err := baselines.MISContext(ctx, counter, baselines.MISOptions{
			Stage1: b.misStage1, N: n, Target: target, TraceEvery: traceEvery, Workers: b.workers,
			Telemetry: b.tele,
		}, rng)
		if err != nil {
			return nil, err
		}
		out.pf, out.relErr = r.Pf, r.RelErr99
		out.stage1, out.stage2 = r.Stage1Sims, r.Stage2Sims
		out.trace, out.distortion = r.Trace, r.GNor
	case "MNIS":
		r, err := baselines.MNISContext(ctx, counter, baselines.MNISOptions{
			Start: &model.StartOptions{TrainN: b.mnisTrainN},
			N:     n, Target: target, TraceEvery: traceEvery, Workers: b.workers,
			Telemetry: b.tele,
		}, rng)
		if err != nil {
			return nil, err
		}
		out.pf, out.relErr = r.Pf, r.RelErr99
		out.stage1, out.stage2 = r.Stage1Sims, r.Stage2Sims
		out.trace, out.distortion = r.Trace, r.GNor
	case "G-C", "G-S":
		coord := gibbs.Cartesian
		if name == "G-S" {
			coord = gibbs.Spherical
		}
		// Mixing diagnostics always run off a registry: the shared one
		// when telemetry is on, a private one otherwise (runs are
		// sequential, so counter deltas isolate this run either way).
		reg := b.tele
		if reg == nil {
			reg = telemetry.New()
		}
		u0, r0 := chainCounterValues(reg)
		r, err := gibbs.TwoStageContext(ctx, counter, gibbs.TwoStageOptions{
			Coord: coord, K: b.gibbsKCap, Stage1Budget: b.gibbsSims,
			N: n, Target: target, TraceEvery: traceEvery, Workers: b.workers,
			Telemetry: reg, Chain: paperChain(),
		}, rng)
		if err != nil {
			return nil, err
		}
		out.pf, out.relErr = r.Pf, r.RelErr99
		out.stage1, out.stage2 = r.Stage1Sims, r.Stage2Sims
		out.trace, out.distortion = r.Trace, r.GNor
		out.gibbs = r.Samples
		out.mix = newMixing(reg, u0, r0, r.Samples)
	default:
		return nil, fmt.Errorf("unknown method %q", name)
	}
	return out, nil
}

// writeCSV writes rows under the output directory.
func writeCSV(cfg config, name string, header []string, rows [][]string) error {
	path := filepath.Join(cfg.outDir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", path, len(rows))
	return nil
}

func f64(v float64) string { return fmt.Sprintf("%.6g", v) }
