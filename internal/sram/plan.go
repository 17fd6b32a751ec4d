package sram

import (
	"fmt"

	"repro/internal/spice"
)

// This file is the Metric's simulation engine. Each Metric owns a set of
// reusable engines — prebuilt circuit templates plus solver workspaces —
// and a deterministic nominal-corner anchor that warm-starts the read
// solves. An engine loops over its rows itself: each row's ΔVth goes
// onto the template's MOSFETs, then one Circuit.SolveDCFrom or
// Circuit.SolveTran (or a sweep or bisection of them) measures it.
//
// Determinism contract: Value IS ValueBatch with a batch of one. Both
// route every sample through the same engine code against the same
// anchor, so a sample's result is a pure function of its own
// coordinates — bit-identical across batch sizes, sample order and
// worker counts. That is only possible because the anchor is computed
// once per Metric from the nominal (ΔVth = 0) cell, never harvested from
// other samples in the batch; see DESIGN.md §12 for why chunk-history
// warm-starting was rejected.
//
// Warm-start policy by metric kind:
//
//	readcurrent/dualread  warm from the nominal read operating point,
//	                      guarded to the intended storage basin
//	rnm                   each transfer-curve point warms from the
//	                      secant prediction of the sample's own two
//	                      previous points
//	wnm                   never warm-started: the write-trip bisection
//	                      probes a bistable circuit near its bifurcation,
//	                      where warm continuation would track the
//	                      vanishing state-1 branch past the trip point
//	                      and bias the margin (hysteresis); probes stay
//	                      cold and gain only template/workspace reuse
//	access                template reuse plus the two-rate integrator
//	                      schedule; the transient itself warm-chains
//	                      step to step as it always has

// cellTemplate is a prebuilt 6-T netlist reused across samples: only the
// MOSFETs' ΔVth (and, for write-trip probes, the BL source) change per
// sample. The transient bench leaves vbl nil.
type cellTemplate struct {
	ckt *spice.Circuit
	ms  [NumTransistors]*spice.MOSFET
	vbl *spice.VSource
	blE float64 // vbl's build-time value, restored before each sample
}

func newCellTemplate(c *Cell, cfg BiasConfig) (*cellTemplate, error) {
	ckt, ms := c.build(cfg, [NumTransistors]float64{})
	vbl, err := ckt.VSourceByName("vbl")
	if err != nil {
		return nil, err
	}
	return &cellTemplate{ckt: ckt, ms: ms, vbl: vbl, blE: vbl.E}, nil
}

func (t *cellTemplate) setDvth(row []float64) {
	for i, m := range t.ms {
		m.DeltaVth = row[i]
	}
}

// sweepTemplate is a prebuilt transfer-curve netlist: the cell plus a
// forcing source on one storage node.
type sweepTemplate struct {
	ckt      *spice.Circuit
	ms       [NumTransistors]*spice.MOSFET
	force    *spice.VSource
	measured string
	guess    map[string]float64
	name     string // "read q→qb", for errors
}

func newSweepTemplate(c *Cell, cfg BiasConfig, forced, measured string) (*sweepTemplate, error) {
	ckt, ms := c.build(cfg, [NumTransistors]float64{})
	ckt.AddVSource("vforce", forced, "0", 0)
	force, err := ckt.VSourceByName("vforce")
	if err != nil {
		return nil, err
	}
	return &sweepTemplate{
		ckt: ckt, ms: ms, force: force, measured: measured,
		// Seed the measured node opposite to the forced node's start so
		// the first solve lands on the inverter's natural output.
		guess: map[string]float64{measured: c.VDD},
		name:  fmt.Sprintf("%s %s→%s", cfg, forced, measured),
	}, nil
}

// metricEngine is one worker's reusable simulation state for a Metric.
// An engine serves one sample at a time; Metric keeps a free list so
// concurrent callers each hold their own.
type metricEngine struct {
	read   *cellTemplate // readcurrent / dualread / wnm
	tran   *cellTemplate // access
	g1, g2 *sweepTemplate
	c1, c2 curve // per-sample transfer-curve buffers

	rowBuf []float64   // backing store for rows
	rows   [][]float64 // per-sample ΔVth rows
	err    error       // template construction failure (poisons every sample)
}

func (m *Metric) newEngine() *metricEngine {
	e := &metricEngine{}
	switch m.Kind {
	case ReadCurrent, DualRead, WNM:
		e.read, e.err = newCellTemplate(m.Cell, ReadConfig)
	case RNM:
		e.g1, e.err = newSweepTemplate(m.Cell, ReadConfig, "q", "qb")
		if e.err == nil {
			e.g2, e.err = newSweepTemplate(m.Cell, ReadConfig, "qb", "q")
		}
	case AccessTime:
		e.tran = m.Cell.buildTran()
	}
	return e
}

func (m *Metric) getEngine() *metricEngine {
	m.mu.Lock()
	if n := len(m.engines); n > 0 {
		e := m.engines[n-1]
		m.engines = m.engines[:n-1]
		m.mu.Unlock()
		return e
	}
	m.mu.Unlock()
	return m.newEngine()
}

func (m *Metric) putEngine(e *metricEngine) {
	m.mu.Lock()
	m.engines = append(m.engines, e)
	m.mu.Unlock()
}

// dvthRows maps normalized coordinates to per-transistor ΔVth rows: row
// i holds all NumTransistors mismatches of sample i (unlisted
// transistors stay nominal). The engine's backing storage is reused; a
// sample with the wrong coordinate count is an API-misuse panic,
// matching the scalar Value contract.
func (e *metricEngine) dvthRows(m *Metric, xs [][]float64) [][]float64 {
	need := len(xs) * NumTransistors
	if cap(e.rowBuf) < need {
		e.rowBuf = make([]float64, need)
		e.rows = make([][]float64, 0, len(xs))
	}
	e.rowBuf = e.rowBuf[:need]
	clear(e.rowBuf)
	e.rows = e.rows[:0]
	for i, x := range xs {
		if len(x) != len(m.Which) {
			panic(fmt.Sprintf("sram: metric got %d coordinates, want %d", len(x), len(m.Which)))
		}
		row := e.rowBuf[i*NumTransistors : (i+1)*NumTransistors]
		for j, tr := range m.Which {
			row[tr] = m.Cell.SigmaVth * x[j]
		}
		e.rows = append(e.rows, row)
	}
	return e.rows
}

// readGuess is the initial guess selecting the read-0 state.
func readGuess(c *Cell) map[string]float64 {
	return map[string]float64{"q": 0.05, "qb": c.VDD}
}

// ensureAnchor computes the metric's warm-start anchor exactly once:
// the nominal-corner read solution that every sample (scalar or
// batched) warms from. The anchor solve is a plain cold solve on a
// throwaway template; a failure simply leaves the anchor nil and
// samples solve cold.
func (m *Metric) ensureAnchor() {
	m.anchorOnce.Do(func() {
		c := m.Cell
		switch m.Kind {
		case ReadCurrent, DualRead:
			t, err := newCellTemplate(c, ReadConfig)
			if err != nil {
				return
			}
			m.anchor, _ = t.ckt.SolveDC(&spice.DCOptions{
				InitialGuess: readGuess(c), Telemetry: c.Telemetry,
			})
		}
		// RNM needs no anchor: its transfer-curve sweeps warm-chain
		// each grid point from the sample's own previous points (see
		// sweepCurve), which is deterministic per sample by
		// construction.
	})
}

// readCurrentBatch solves one read configuration for every row, warm
// from the nominal anchor, and writes |I(M3)| per sample into out.
// outErrs[i] reports sample i's solve failure.
func (m *Metric) readCurrentBatch(t *cellTemplate, rows [][]float64, out []float64, outErrs []error) {
	c := m.Cell
	t.vbl.E = t.blE
	guard := func(op *spice.OperatingPoint) bool {
		// The warm start must have stayed in the read-0 basin; a flip
		// means the anchor was a bad seed for this corner, and the cold
		// path (which may legitimately land flipped) decides.
		return op.Voltage("q") < 0.5*c.VDD
	}
	opts := &spice.DCOptions{InitialGuess: readGuess(c), Telemetry: c.Telemetry}
	for i, row := range rows {
		t.setDvth(row)
		op, err := t.ckt.SolveDCFrom(m.anchor, guard, opts)
		if err != nil {
			outErrs[i] = fmt.Errorf("sram: read-current operating point: %w", err)
			continue
		}
		cur := t.ms[M3].Current(op)
		if cur < 0 {
			cur = -cur
		}
		out[i], outErrs[i] = cur, nil
	}
}

// mirrorRow swaps the A-side and B-side mismatches of a row in place:
// the cell is topologically symmetric, so the B-side read current equals
// the A-side read current of the mirrored cell.
func mirrorRow(row []float64) {
	row[M1], row[M2] = row[M2], row[M1]
	row[M3], row[M4] = row[M4], row[M3]
	row[M5], row[M6] = row[M6], row[M5]
}

// rawBatch computes the raw metric value for every row, writing values
// into out and per-sample failures into outErrs.
func (m *Metric) rawBatch(e *metricEngine, rows [][]float64, out []float64, outErrs []error) {
	if e.err != nil {
		for i := range rows {
			outErrs[i] = e.err
		}
		return
	}
	switch m.Kind {
	case ReadCurrent:
		m.readCurrentBatch(e.read, rows, out, outErrs)
	case DualRead:
		m.readCurrentBatch(e.read, rows, out, outErrs)
		ia := append([]float64(nil), out[:len(rows)]...)
		iaErrs := append([]error(nil), outErrs[:len(rows)]...)
		for _, row := range rows {
			mirrorRow(row)
		}
		m.readCurrentBatch(e.read, rows, out, outErrs)
		for i := range rows {
			if outErrs[i] == nil {
				outErrs[i] = iaErrs[i]
			}
			if ia[i] < out[i] {
				out[i] = ia[i]
			}
		}
	case RNM:
		for i, row := range rows {
			out[i], outErrs[i] = m.snmSample(e, row)
		}
	case WNM:
		for i, row := range rows {
			out[i], outErrs[i] = m.writeSample(e, row)
		}
	case AccessTime:
		m.accessTimeBatch(e.tran, rows, out, outErrs)
	default:
		for i := range rows {
			outErrs[i] = fmt.Errorf("sram: unknown metric kind %v", m.Kind)
		}
	}
}

// snmSample extracts the state-0 butterfly eye for one sample on the
// engine's transfer-curve templates.
func (m *Metric) snmSample(e *metricEngine, row []float64) (float64, error) {
	if err := sweepCurve(m.Cell, e.g1, row, &e.c1); err != nil {
		return 0, err
	}
	if err := sweepCurve(m.Cell, e.g2, row, &e.c2); err != nil {
		return 0, err
	}
	return eyeSquare(&e.c1, &e.c2, 0, m.Cell.VDD), nil
}

// sweepCurve traces one transfer curve on the engine template: point 0
// solves cold from the bias-state initial guess, point 1 warm-starts
// from point 0, and every later point warm-starts from the secant
// extrapolation of the sample's own two previous points — the classic
// predictor-corrector continuation sweep. Chaining stays strictly
// inside the sample (no state crosses sample boundaries), so results
// are independent of batch size, sample order and worker count; and
// because the predicted point tracks the perturbed curve itself, it is
// closer than any fixed nominal anchor, cutting Newton iterations per
// grid point well below an anchor-pool policy.
func sweepCurve(c *Cell, t *sweepTemplate, row []float64, out *curve) error {
	for i, ms := range t.ms {
		ms.DeltaVth = row[i]
	}
	n := c.grid()
	if cap(out.xs) < n {
		out.xs = make([]float64, n)
		out.ys = make([]float64, n)
	}
	out.xs, out.ys = out.xs[:n], out.ys[:n]
	orig := t.force.E
	defer func() { t.force.E = orig }()
	opts := &spice.DCOptions{InitialGuess: t.guess, Telemetry: c.Telemetry}
	var prev, prev2 *spice.OperatingPoint
	for i := 0; i < n; i++ {
		// The same grid formula as spice.Sweep.
		v := (c.VDD) * float64(i) / float64(n-1)
		t.force.E = v
		anchor := prev
		if prev2 != nil {
			anchor = prev.PredictFrom(prev2)
		}
		op, err := t.ckt.SolveDCFrom(anchor, nil, opts)
		if err != nil {
			return fmt.Errorf("sram: %s transfer curve point %d: %w", t.name, i, err)
		}
		prev2, prev = prev, op
		out.xs[i] = v
		out.ys[i] = op.Voltage(t.measured)
	}
	return nil
}

// writeSample returns the bitline write-trip voltage: the highest BL
// voltage at which the cell storing a 1 at Q flips when the word line is
// asserted (writing a 0 through M3 against load M5). A healthy cell flips
// with BL well above 0 V; a write-failing cell does not flip even at
// BL = 0, in which case the value is negative (down to WriteTripFloor,
// where it saturates). A cell that flips with BL still at VDD is
// read-unstable, which the write metric treats as flipping at VDD. Each
// probe is one cold DC solve seeded in the state-1 basin, never
// warm-started (see the policy note in the file comment).
func (m *Metric) writeSample(e *metricEngine, row []float64) (float64, error) {
	c := m.Cell
	t := e.read
	t.setDvth(row)
	t.vbl.E = t.blE // undo the previous sample's bisection
	opts := &spice.DCOptions{
		InitialGuess: map[string]float64{"q": c.VDD, "qb": 0},
		Telemetry:    c.Telemetry,
	}
	flipped := func(bl float64) (bool, error) {
		t.vbl.E = bl
		op, err := t.ckt.SolveDC(opts)
		if err != nil {
			return false, fmt.Errorf("sram: write-trip solve at BL=%.3f: %w", bl, err)
		}
		return op.Voltage("q") < 0.5*c.VDD, nil
	}
	lo, hi := WriteTripFloor, c.VDD
	if f, err := flipped(hi); err != nil {
		return 0, err
	} else if f {
		return hi, nil
	}
	if f, err := flipped(lo); err != nil {
		return 0, err
	} else if !f {
		return lo, nil // saturated: cannot write even at the floor
	}
	for i := 0; i < 14; i++ {
		mid := 0.5 * (lo + hi)
		f, err := flipped(mid)
		if err != nil {
			// Non-convergence this close to the trip bifurcation means
			// the state-1 solution is marginal; classifying the point as
			// flipped moves the trip estimate by at most the current
			// bisection interval.
			f = true
		}
		if f {
			lo = mid // flips at mid: trip voltage is at or above mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}
