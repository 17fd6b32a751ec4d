package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gibbs"
	"repro/internal/mc"
	"repro/internal/sram"
	"repro/internal/stat"
)

// runFig3 regenerates the paper's Fig. 3: 100 samples of the conditional
// g^OPT(α₁ | r, α₂) for the quadrant failure region of eq. (18), at r = 1
// with α₂ = 1 and α₂ = 3, plotted as (x₁, x₂) scatter. With x₂ ≥ 0
// guaranteed by α₂ > 0, the conditional failure interval of α₁ is
// [0, ζ], so the samples spread along an arc whose length shrinks as α₂
// grows — the mechanism that lets the spherical chain slide along
// probability contours.
func runFig3(ctx context.Context, cfg config) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	const n = 100
	const zeta = 8.0
	r := 1.0
	for _, alpha2 := range []float64{1, 3} {
		var rows [][]string
		minT, maxT := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			a1 := stat.TruncNormSample(0, zeta, rng.Float64())
			x, err := gibbs.CartesianFromSpherical(r, []float64{a1, alpha2})
			if err != nil {
				return err
			}
			th := math.Atan2(x[1], x[0])
			minT, maxT = math.Min(minT, th), math.Max(maxT, th)
			rows = append(rows, []string{f64(x[0]), f64(x[1])})
		}
		name := fmt.Sprintf("fig3_alpha2_%.0f.csv", alpha2)
		if err := writeCSV(cfg, name, []string{"x1", "x2"}, rows); err != nil {
			return err
		}
		fmt.Printf("  α₂ = %.0f: arc angular span %.1f°\n", alpha2, (maxT-minT)*180/math.Pi)
	}
	fmt.Println("expected shape (paper Fig. 3): the α₂ = 1 arc is much longer than α₂ = 3.")
	return nil
}

// traceFig runs the four methods with convergence tracing on a metric and
// writes one CSV per method plus a printed summary; shared by Figs 6, 7
// and 12 (the same run yields both the estimate and the error series).
func traceFig(ctx context.Context, cfg config, metric mc.Metric, tag string, n int) error {
	b := defaultBudgets(cfg)
	for _, name := range methodNames {
		r, err := runMethod(ctx, name, metric, b, n, 0, mc.TraceEvery(b.traceEvery), cfg.seed)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		var rows [][]string
		for _, tp := range r.trace {
			rel := tp.RelErr99
			if math.IsInf(rel, 1) {
				rel = -1 // CSV-friendly sentinel for "no failures yet"
			}
			rows = append(rows, []string{fmt.Sprint(tp.N), f64(tp.Estimate), f64(rel)})
		}
		file := fmt.Sprintf("%s_%s.csv", tag, sanitize(name))
		if err := writeCSV(cfg, file, []string{"n", "estimate", "relerr99"}, rows); err != nil {
			return err
		}
		fmt.Printf("  %-5s final: Pf=%.3g relerr=%.1f%% (stage1 %d sims)\n",
			name, r.pf, 100*r.relErr, r.stage1)
	}
	return nil
}

// runFig6 regenerates Fig. 6: estimated failure probability vs the number
// of second-stage simulations for RNM (a) and WNM (b).
func runFig6(ctx context.Context, cfg config) error {
	n := c2(cfg.quick, 2000, 20000)
	fmt.Println("Fig. 6(a) RNM:")
	if err := traceFig(ctx, cfg, sram.RNMWorkload(), "fig6a_rnm", n); err != nil {
		return err
	}
	fmt.Println("Fig. 6(b) WNM:")
	return traceFig(ctx, cfg, sram.WNMWorkload(), "fig6b_wnm", n)
}

// runFig7 regenerates Fig. 7: the 99%-CI relative error vs second-stage
// simulations. The series are produced by the same runs as Fig. 6 (the
// CSV files contain both columns); this entry point re-runs them under
// the fig7 name for users who only want the error series.
func runFig7(ctx context.Context, cfg config) error {
	n := c2(cfg.quick, 2000, 20000)
	fmt.Println("Fig. 7(a) RNM:")
	if err := traceFig(ctx, cfg, sram.RNMWorkload(), "fig7a_rnm", n); err != nil {
		return err
	}
	fmt.Println("Fig. 7(b) WNM:")
	return traceFig(ctx, cfg, sram.WNMWorkload(), "fig7b_wnm", n)
}

// runFig8to11 regenerates Figs. 8–11: second-stage sample scatter for
// each method, projected on the metric's critical mismatch pair and
// labeled pass/fail. RNM projects on (ΔVth1, ΔVth3); WNM on
// (ΔVth3, ΔVth5).
func runFig8to11(ctx context.Context, cfg config) error {
	b := defaultBudgets(cfg)
	nScatter := c2(cfg.quick, 150, 500)
	figOfMethod := map[string]int{"MIS": 8, "MNIS": 9, "G-C": 10, "G-S": 11}
	type proj struct {
		metric mc.Metric
		ax, ay int // indices into the 6-D variation vector
		lx, ly string
	}
	projs := map[string]proj{
		"rnm": {sram.RNMWorkload(), sram.M1, sram.M3, "dvth1", "dvth3"},
		"wnm": {sram.WNMWorkload(), sram.M3, sram.M5, "dvth3", "dvth5"},
	}
	for _, mname := range []string{"rnm", "wnm"} {
		p := projs[mname]
		for _, name := range methodNames {
			// Build the method's distortion with a minimal second stage,
			// then draw a fresh labeled scatter from it (distributionally
			// identical to the stage-2 stream).
			r, err := runMethod(ctx, name, p.metric, b, 10, 0, 0, cfg.seed)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", name, mname, err)
			}
			rng := rand.New(rand.NewSource(cfg.seed + 17))
			var rows [][]string
			fails := 0
			for i := 0; i < nScatter; i++ {
				x := r.distortion.Sample(rng)
				fail := 0
				if p.metric.Value(x) < 0 {
					fail = 1
					fails++
				}
				rows = append(rows, []string{
					f64(x[p.ax]), f64(x[p.ay]), fmt.Sprint(fail),
				})
			}
			file := fmt.Sprintf("fig%d_%s_%s.csv", figOfMethod[name], mname, sanitize(name))
			if err := writeCSV(cfg, file, []string{p.lx, p.ly, "fail"}, rows); err != nil {
				return err
			}
			fmt.Printf("  fig%d %s %-5s: %d/%d scatter samples fail\n",
				figOfMethod[name], mname, name, fails, nScatter)
		}
	}
	fmt.Println("expected shape (paper Figs. 8–11): MIS/MNIS scatter mostly 'pass'")
	fmt.Println("(covariance ignored); G-C/G-S scatter concentrates in the failure region.")
	return nil
}

// runFig12 regenerates Fig. 12: estimated dual read-current failure
// probability vs second-stage simulations — the experiment where the
// methods visibly diverge.
func runFig12(ctx context.Context, cfg config) error {
	n := c2(cfg.quick, 2000, 10000)
	fmt.Println("Fig. 12 dual read current:")
	if err := traceFig(ctx, cfg, sram.DualReadCurrentWorkload(), "fig12_dualread", n); err != nil {
		return err
	}
	fmt.Println("expected shape (paper Fig. 12): G-S converges to the brute-force value;")
	fmt.Println("MIS/MNIS scatter; G-C plateaus at roughly half the true failure rate.")
	return nil
}

// runFig13 regenerates Fig. 13: the 2-D failure-region map of the dual
// read-current workload (uniform region scan) plus each method's
// second-stage failure points.
func runFig13(ctx context.Context, cfg config) error {
	metric := sram.DualReadCurrentWorkload()
	// Region map: uniform grid scan (the paper's green squares are
	// uniform samples of the failure region; a grid is the deterministic
	// equivalent).
	step := 0.25
	if cfg.quick {
		step = 0.5
	}
	var rows [][]string
	for x4 := -2.0; x4 <= 8.0+1e-9; x4 += step {
		for x3 := -2.0; x3 <= 8.0+1e-9; x3 += step {
			if metric.Value([]float64{x3, x4}) < 0 {
				rows = append(rows, []string{f64(x3), f64(x4)})
			}
		}
	}
	if err := writeCSV(cfg, "fig13_region.csv", []string{"dvth3", "dvth4"}, rows); err != nil {
		return err
	}
	// Per-method failure points from the fitted distortions.
	b := defaultBudgets(cfg)
	nScatter := c2(cfg.quick, 200, 1000)
	for _, name := range methodNames {
		r, err := runMethod(ctx, name, metric, b, 10, 0, 0, cfg.seed)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rng := rand.New(rand.NewSource(cfg.seed + 29))
		var pts [][]string
		for i := 0; i < nScatter; i++ {
			x := r.distortion.Sample(rng)
			if metric.Value(x) < 0 {
				pts = append(pts, []string{f64(x[0]), f64(x[1])})
			}
		}
		file := fmt.Sprintf("fig13_points_%s.csv", sanitize(name))
		if err := writeCSV(cfg, file, []string{"dvth3", "dvth4"}, pts); err != nil {
			return err
		}
		// Lobe coverage summary: fraction of failure points in each lobe.
		var lobeA, lobeB int
		for _, p := range pts {
			if p[0] > p[1] {
				lobeA++
			} else {
				lobeB++
			}
		}
		fmt.Printf("  %-5s failure points: %d (lobe x3: %d, lobe x4: %d)\n",
			name, len(pts), lobeA, lobeB)
	}
	fmt.Println("expected shape (paper Fig. 13): G-S covers both lobes of the")
	fmt.Println("high-probability failure region; the others cover only part of it.")
	return nil
}

// runFig14 regenerates Fig. 14: the first three Gibbs samples of G-C and
// G-S from the same starting point on the dual read-current workload,
// illustrating why the spherical chain escapes along probability contours
// while the Cartesian chain stays near its lobe's boundary.
func runFig14(ctx context.Context, cfg config) error {
	metric := sram.DualReadCurrentWorkload()
	// A deterministic start inside one lobe, as Algorithm 4 would find.
	start := []float64{0.3, 5.2}
	if metric.Value(start) >= 0 {
		return fmt.Errorf("fig14 start point unexpectedly passes")
	}
	for _, name := range []string{"G-C", "G-S"} {
		counter := mc.NewCounter(metric)
		rng := rand.New(rand.NewSource(cfg.seed))
		var (
			samples [][]float64
			err     error
		)
		if name == "G-C" {
			samples, err = gibbs.CartesianChainContext(ctx, counter, start, 3, nil, rng)
		} else {
			samples, err = gibbs.SphericalChainContext(ctx, counter, start, 3, nil, rng)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rows := [][]string{{f64(start[0]), f64(start[1]), "start"}}
		for i, s := range samples {
			rows = append(rows, []string{f64(s[0]), f64(s[1]), fmt.Sprintf("sample%d", i+1)})
		}
		file := fmt.Sprintf("fig14_%s.csv", sanitize(name))
		if err := writeCSV(cfg, file, []string{"dvth3", "dvth4", "label"}, rows); err != nil {
			return err
		}
		d := dist(start, samples[len(samples)-1])
		fmt.Printf("  %-5s start %v -> third sample %.2f away\n", name, start, d)
	}
	fmt.Println("expected shape (paper Fig. 14): the G-S samples move far along the")
	fmt.Println("probability contour; the G-C samples stay near the starting point.")
	return nil
}

func sanitize(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'A' && r <= 'Z':
			out = append(out, r+'a'-'A')
		case r == '-':
			// drop
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func dist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
