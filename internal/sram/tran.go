package sram

import "repro/internal/spice"

// The transient bench behind the timing kinds (AccessTime, WriteDelay):
// they simulate the actual bitline discharge and write transition
// instead of using the static read current as a proxy.

// TranSpec holds the transient test-bench parameters.
type TranSpec struct {
	// CBit is the bitline capacitance in farads (default 10 fF).
	CBit float64
	// CCell is the internal storage-node capacitance (default 0.2 fF).
	CCell float64
	// Step and Stop are the integration step and end time (defaults
	// 2 ps and 1 ns).
	Step, Stop float64
	// WLEdge is when the word line rises (default 50 ps, 20 ps ramp).
	WLEdge float64
	// Sense is the bitline differential that ends a read (default
	// 100 mV).
	Sense float64
}

func (s *TranSpec) defaults() TranSpec {
	d := TranSpec{CBit: 10e-15, CCell: 0.2e-15, Step: 2e-12, Stop: 1e-9, WLEdge: 50e-12, Sense: 0.1}
	if s == nil {
		return d
	}
	out := *s
	if out.CBit <= 0 {
		out.CBit = d.CBit
	}
	if out.CCell <= 0 {
		out.CCell = d.CCell
	}
	if out.Step <= 0 {
		out.Step = d.Step
	}
	if out.Stop <= 0 {
		out.Stop = d.Stop
	}
	if out.WLEdge <= 0 {
		out.WLEdge = d.WLEdge
	}
	if out.Sense <= 0 {
		out.Sense = d.Sense
	}
	return out
}

// buildTran assembles the nominal cell with capacitive bitlines as a
// template with its six transistors indexed M1..M6. When driveBL is true
// the bitlines are driven by sources, BL low and BLB high (write);
// otherwise they float on their precharge capacitors (read sensing).
func (c *Cell) buildTran(spec TranSpec, driveBL bool) *cellTemplate {
	ckt := spice.NewCircuit()
	ckt.AddVSource("vdd", "vdd", "0", c.VDD)
	wl := ckt.AddVSource("vwl", "wl", "0", 0)
	wl.Waveform = spice.StepWaveform(0, c.VDD, spec.WLEdge, 20e-12)
	if driveBL {
		ckt.AddVSource("vbl", "bl", "0", 0)
		ckt.AddVSource("vblb", "blb", "0", c.VDD)
	}
	ckt.AddCapacitor("cbl", "bl", "0", spec.CBit)
	ckt.AddCapacitor("cblb", "blb", "0", spec.CBit)
	ckt.AddCapacitor("cq", "q", "0", spec.CCell)
	ckt.AddCapacitor("cqb", "qb", "0", spec.CCell)

	return &cellTemplate{ckt: ckt, ms: [NumTransistors]*spice.MOSFET{
		M1: ckt.AddMOSFET("m1", "q", "qb", "0", "0", c.Driver),
		M2: ckt.AddMOSFET("m2", "qb", "q", "0", "0", c.Driver),
		M3: ckt.AddMOSFET("m3", "bl", "wl", "q", "0", c.Access),
		M4: ckt.AddMOSFET("m4", "blb", "wl", "qb", "0", c.Access),
		M5: ckt.AddMOSFET("m5", "q", "qb", "vdd", "vdd", c.Load),
		M6: ckt.AddMOSFET("m6", "qb", "q", "vdd", "vdd", c.Load),
	}}
}

// runTranBatch integrates each row's transient on the engine's bench,
// one SolveTran per row, and extracts the per-sample delay of the
// metric's timing kind: the crossing time minus the WL edge, or the
// remaining window Stop − WLEdge on no crossing (an access or write
// failure), which keeps the metric finite and monotone. The crossing is
// linearly interpolated between the bracketing time points, which keeps
// the metric smooth in the mismatch variables (no step-quantization
// plateaus, which would break binary search and model fits). The
// integrator runs a two-rate step schedule — coarse steps across the
// quiescent pre-wordline lead-in, fine steps once the cell is active —
// and the crossing detector stops each run as soon as its delay is
// resolved. errs[i] reports sample i's solve failure.
func (m *Metric) runTranBatch(b *cellTemplate, rows [][]float64, delays []float64, errs []error) {
	c := m.Cell
	s := m.Bench.defaults()
	opts := spice.TranOptions{
		Stop: s.Stop, Step: s.Step, Method: spice.BackwardEuler,
		// Only node voltages are read, per step and per crossing.
		DC: &spice.DCOptions{Telemetry: c.Telemetry, NoBranchCurrents: true},
		// Nothing moves before the word line rises, so the lead-in is
		// integrated at a fifth of the resolution; the fine step takes
		// over exactly at the WL edge (the first waveform breakpoint).
		CoarseStep:  s.WLEdge / 5,
		CoarseUntil: s.WLEdge,
	}
	// Crossing state of the row being integrated: its index and the
	// previous time point, reset to (0, v0) before each run.
	var i int
	var prevT, prevV, v0 float64
	var fn func(p spice.TranPoint) bool
	switch m.Kind {
	case AccessTime:
		opts.InitialConditions = map[string]float64{
			"bl": c.VDD, "blb": c.VDD, "q": 0, "qb": c.VDD,
		}
		fn = func(p spice.TranPoint) bool {
			d := p.OP.Voltage("blb") - p.OP.Voltage("bl")
			if p.T > s.WLEdge && d >= s.Sense {
				t := p.T
				if d > prevV {
					t = prevT + (s.Sense-prevV)*(p.T-prevT)/(d-prevV)
				}
				delays[i] = t - s.WLEdge
				return false
			}
			prevT, prevV = p.T, d
			return true
		}
	case WriteDelay:
		opts.InitialConditions = map[string]float64{
			"q": c.VDD, "qb": 0, "bl": 0, "blb": c.VDD,
		}
		v0 = c.VDD
		fn = func(p spice.TranPoint) bool {
			q := p.OP.Voltage("q")
			if p.T > s.WLEdge && q < 0.5*c.VDD {
				t := p.T
				if q < prevV {
					t = prevT + (prevV-0.5*c.VDD)*(p.T-prevT)/(prevV-q)
				}
				delays[i] = t - s.WLEdge
				return false
			}
			prevT, prevV = p.T, q
			return true
		}
	}
	for i = range rows {
		b.setDvth(rows[i])
		delays[i] = s.Stop - s.WLEdge
		prevT, prevV = 0, v0
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
