package sram

import "repro/internal/spice"

// The transient bench behind the AccessTime kind: it simulates the
// actual bitline discharge instead of using the static read current as
// a proxy.

// The access bench's fixed settings: the bitline and storage-node
// capacitances, the integration step and end time, the word-line edge
// (a 20 ps ramp) and the bitline differential that ends a read. They are
// typed float64 constants, so each derived value such as
// accessWLEdge/5 rounds to float64 operation by operation, exactly as
// run-time arithmetic on float64 variables does; an untyped expression
// would round once and can land one ulp away.
const (
	accessCBit   float64 = 10e-15
	accessCCell  float64 = 0.2e-15
	accessStep   float64 = 2e-12
	accessStop   float64 = 1e-9
	accessWLEdge float64 = 50e-12
	accessSense  float64 = 0.1
)

// buildTran assembles the nominal cell of the access bench, its
// bitlines floating on their precharge capacitors, as a template with
// its six transistors indexed M1..M6.
func (c *Cell) buildTran() *cellTemplate {
	ckt := spice.NewCircuit()
	ckt.AddVSource("vdd", "vdd", "0", c.VDD)
	wl := ckt.AddVSource("vwl", "wl", "0", 0)
	wl.Waveform = spice.StepWaveform(0, c.VDD, accessWLEdge, 20e-12)
	ckt.AddCapacitor("cbl", "bl", "0", accessCBit)
	ckt.AddCapacitor("cblb", "blb", "0", accessCBit)
	ckt.AddCapacitor("cq", "q", "0", accessCCell)
	ckt.AddCapacitor("cqb", "qb", "0", accessCCell)

	return &cellTemplate{ckt: ckt, ms: [NumTransistors]*spice.MOSFET{
		M1: ckt.AddMOSFET("m1", "q", "qb", "0", "0", c.Driver),
		M2: ckt.AddMOSFET("m2", "qb", "q", "0", "0", c.Driver),
		M3: ckt.AddMOSFET("m3", "bl", "wl", "q", "0", c.Access),
		M4: ckt.AddMOSFET("m4", "blb", "wl", "qb", "0", c.Access),
		M5: ckt.AddMOSFET("m5", "q", "qb", "vdd", "vdd", c.Load),
		M6: ckt.AddMOSFET("m6", "qb", "q", "vdd", "vdd", c.Load),
	}}
}

// accessTimeBatch integrates each row's read transient on the engine's
// bench, one SolveTran per row, and extracts the per-sample access time:
// the time the bitline differential crosses accessSense, minus the WL
// edge, or the remaining window accessStop − accessWLEdge on no crossing
// (an access failure), which keeps the metric finite and monotone. The
// crossing is linearly interpolated between the bracketing time points,
// which keeps the metric smooth in the mismatch variables (no
// step-quantization plateaus, which would break binary search and model
// fits). The integrator runs a two-rate step schedule — coarse steps
// across the quiescent pre-wordline lead-in, fine steps once the cell is
// active — and the crossing detector stops each run as soon as its delay
// is resolved. errs[i] reports sample i's solve failure.
func (m *Metric) accessTimeBatch(b *cellTemplate, rows [][]float64, delays []float64, errs []error) {
	c := m.Cell
	opts := spice.TranOptions{
		Stop: accessStop, Step: accessStep,
		DC: &spice.DCOptions{Telemetry: c.Telemetry},
		// The cell stores a 0 behind bitlines precharged to VDD.
		InitialConditions: map[string]float64{
			"bl": c.VDD, "blb": c.VDD, "q": 0, "qb": c.VDD,
		},
		// Nothing moves before the word line rises, so the lead-in is
		// integrated at a fifth of the resolution; the fine step takes
		// over exactly at the WL edge (the first waveform breakpoint).
		CoarseStep:  accessWLEdge / 5,
		CoarseUntil: accessWLEdge,
	}
	// Crossing state of the row being integrated: its index and the
	// previous time point, reset to (0, 0) before each run.
	var i int
	var prevT, prevV float64
	fn := func(p spice.TranPoint) bool {
		d := p.OP.Voltage("blb") - p.OP.Voltage("bl")
		if p.T > accessWLEdge && d >= accessSense {
			t := p.T
			if d > prevV {
				t = prevT + (accessSense-prevV)*(p.T-prevT)/(d-prevV)
			}
			delays[i] = t - accessWLEdge
			return false
		}
		prevT, prevV = p.T, d
		return true
	}
	for i = range rows {
		b.setDvth(rows[i])
		delays[i] = accessStop - accessWLEdge
		prevT, prevV = 0, 0
		errs[i] = b.ckt.SolveTran(opts, fn)
	}
}

// AccessTimeWorkload is the dynamic counterpart of the read-current
// experiment: access-time failure over the read-path pair {ΔVth1, ΔVth3}
// of the fast-read cell. The spec is calibrated like the static
// workloads (see EXPERIMENTS.md): nominal ≈ 31.3 ps with a
// ‖∇‖ ≈ 1.44 ps/σ gradient, so a 39.7 ps budget puts the boundary near
// 4.7σ along the steepest direction.
func AccessTimeWorkload() *Metric {
	return &Metric{
		Cell: FastRead90nm(), Kind: AccessTime, Spec: 39.7e-12,
		Which: []int{M1, M3},
		// Delays are ps-scale; rescale so margins are O(1) for the
		// response-surface solver.
		Scale: 1e12,
	}
}
