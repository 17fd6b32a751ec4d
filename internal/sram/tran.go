package sram

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/spice"
)

// Dynamic (transient) cell metrics. The paper motivates the read-current
// experiment through access-time failure — "the read current directly
// impacts the discharge speed of bit lines during a read operation"
// (§V-B). These metrics close that loop: they simulate the actual
// bitline discharge and write transition instead of using the static
// current as a proxy.

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

// buildTran assembles the nominal cell with capacitive bitlines and
// returns it with its six transistors indexed M1..M6. When driveBL is
// true the bitlines are driven by sources, BL low and BLB high (write);
// otherwise they float on their precharge capacitors (read sensing).
func (c *Cell) buildTran(spec TranSpec, driveBL bool) (*spice.Circuit, [NumTransistors]*spice.MOSFET) {
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

	return ckt, [NumTransistors]*spice.MOSFET{
		M1: ckt.AddMOSFET("m1", "q", "qb", "0", "0", c.Driver),
		M2: ckt.AddMOSFET("m2", "qb", "q", "0", "0", c.Driver),
		M3: ckt.AddMOSFET("m3", "bl", "wl", "q", "0", c.Access),
		M4: ckt.AddMOSFET("m4", "blb", "wl", "qb", "0", c.Access),
		M5: ckt.AddMOSFET("m5", "q", "qb", "vdd", "vdd", c.Load),
		M6: ckt.AddMOSFET("m6", "qb", "q", "vdd", "vdd", c.Load),
	}
}

// TranMetric adapts a dynamic metric to mc.Metric: margin = Spec − delay
// (fail when the cell is slower than Spec). Coordinates map to
// transistors through Which with ΔVth = SigmaVth·x, like the static
// Metric.
//
// Like Metric, a TranMetric is safe for concurrent use and must not be
// copied after first use: batched evaluation reuses transient test
// benches from a free list.
type TranMetric struct {
	Cell *Cell
	// Kind selects the test bench: "access" reads a stored 0 through
	// floating precharged bitlines, and the delay runs from the WL edge
	// until the bitline differential reaches Bench.Sense; "write" drives
	// BL low into a cell storing 1, and the delay runs until Q falls
	// through VDD/2. A delay that never resolves within Bench.Stop (an
	// access or write failure) is the remaining window Stop − WLEdge,
	// keeping the metric finite and monotone.
	Kind string
	// Spec is the timing budget in seconds.
	Spec float64
	// Bench tunes the transient test bench (nil = defaults).
	Bench *TranSpec
	// Which lists the transistors exposed as variation coordinates.
	Which []int
	// Scale converts seconds to well-conditioned units for response
	// surfaces (default 1e12: picoseconds).
	Scale float64

	mu      sync.Mutex
	engines []*tranEngine
}

// Dim implements mc.Metric.
func (m *TranMetric) Dim() int { return len(m.Which) }

// Value implements mc.Metric: ValueBatch with a batch of one, so scalar
// and batched evaluation share one code path (and one result).
func (m *TranMetric) Value(x []float64) float64 {
	var out [1]float64
	xs := [1][]float64{x}
	m.ValueBatch(xs[:], out[:])
	return out[0]
}

// tranEngine is one worker's reusable transient test bench: the cell
// with capacitive bitlines built once, re-biased per sample by the batch
// kernel. The transient itself needs no warm-start anchors — every step
// already warm-chains from the previous one.
type tranEngine struct {
	ckt    *spice.Circuit
	ms     [NumTransistors]*spice.MOSFET
	rowBuf []float64
	rows   [][]float64
	err    error
}

func (m *TranMetric) newEngine(s TranSpec) *tranEngine {
	e := &tranEngine{}
	switch m.Kind {
	case "access", "write":
		e.ckt, e.ms = m.Cell.buildTran(s, m.Kind == "write")
	default:
		e.err = errors.New("sram: unknown tran metric kind")
	}
	return e
}

func (m *TranMetric) getEngine(s TranSpec) *tranEngine {
	m.mu.Lock()
	if n := len(m.engines); n > 0 {
		e := m.engines[n-1]
		m.engines = m.engines[:n-1]
		m.mu.Unlock()
		return e
	}
	m.mu.Unlock()
	return m.newEngine(s)
}

func (m *TranMetric) putEngine(e *tranEngine) {
	m.mu.Lock()
	m.engines = append(m.engines, e)
	m.mu.Unlock()
}

// ValueBatch implements mc.BatchMetric: margins for a batch of samples on
// one reusable test bench. The transient kernel adds a two-rate step
// schedule — coarse steps across the quiescent pre-wordline lead-in,
// fine steps once the cell is active — and the crossing detector stops
// each sample's integration as soon as its delay is resolved.
func (m *TranMetric) ValueBatch(xs [][]float64, out []float64) {
	if len(out) < len(xs) {
		panic(fmt.Sprintf("sram: batch output length %d < %d samples", len(out), len(xs)))
	}
	out = out[:len(xs)]
	s := m.Bench.defaults()
	e := m.getEngine(s)
	defer m.putEngine(e)
	e.rowBuf, e.rows = buildDvthRows(e.rowBuf, e.rows, m.Which, m.Cell.SigmaVth, xs, "tran metric")

	delays := make([]float64, len(xs))
	var errs []error
	if e.err == nil {
		errs = m.runTranBatch(e, s, e.rows, delays)
	}
	scale := m.Scale
	//reprolint:ignore floateq Scale is user-assigned configuration, never computed; exact 0 is the unset sentinel
	if scale == 0 {
		scale = 1e12
	}
	for i := range out {
		delay := delays[i]
		if e.err != nil || errs[i] != nil {
			// Non-convergence means the cell is broken: maximal delay.
			delay = s.Stop
		}
		out[i] = (m.Spec - delay) * scale
	}
}

// Raw returns the delay in seconds (see Kind) at a full per-transistor
// ΔVth vector in volts (Which is not consulted), with the simulation
// error that Value would replace by the maximal delay. It runs Value's
// own engine code, so Raw at ΔVth_Which[j] = SigmaVth·x_j is the delay
// behind Value(x).
func (m *TranMetric) Raw(dvth [NumTransistors]float64) (float64, error) {
	s := m.Bench.defaults()
	e := m.getEngine(s)
	defer m.putEngine(e)
	if e.err != nil {
		return 0, e.err
	}
	var delay [1]float64
	errs := m.runTranBatch(e, s, [][]float64{dvth[:]}, delay[:])
	return delay[0], errs[0]
}

// runTranBatch integrates every row's transient on the engine's bench
// and extracts the per-sample delay: the crossing time minus the WL edge,
// or the remaining window on no crossing. The crossing is linearly
// interpolated between the bracketing time points, which keeps the metric
// smooth in the mismatch variables (no step-quantization plateaus, which
// would break binary search and model fits). Returns per-sample solve
// errors.
func (m *TranMetric) runTranBatch(e *tranEngine, s TranSpec, rows [][]float64, delays []float64) []error {
	c := m.Cell
	opts := spice.TranBatchOptions{
		Tran: spice.TranOptions{
			Stop: s.Stop, Step: s.Step, Method: spice.BackwardEuler,
			// Only node voltages are read, per step and per crossing.
			DC: &spice.DCOptions{Telemetry: c.Telemetry, NoBranchCurrents: true},
			// Nothing moves before the word line rises, so the lead-in is
			// integrated at a fifth of the resolution; the fine step takes
			// over exactly at the WL edge (the first waveform breakpoint).
			CoarseStep:  s.WLEdge / 5,
			CoarseUntil: s.WLEdge,
		},
		MOSFETs: e.ms[:],
	}
	// Per-sample crossing state, reset when the kernel moves to the next
	// sample.
	cur := -1
	var prevT, prevV float64
	for i := range delays {
		delays[i] = s.Stop - s.WLEdge
	}
	var fn func(i int, p spice.TranPoint) bool
	switch m.Kind {
	case "access":
		opts.Tran.InitialConditions = map[string]float64{
			"bl": c.VDD, "blb": c.VDD, "q": 0, "qb": c.VDD,
		}
		fn = func(i int, p spice.TranPoint) bool {
			if i != cur {
				cur, prevT, prevV = i, 0, 0
			}
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
	case "write":
		opts.Tran.InitialConditions = map[string]float64{
			"q": c.VDD, "qb": 0, "bl": 0, "blb": c.VDD,
		}
		fn = func(i int, p spice.TranPoint) bool {
			if i != cur {
				cur, prevT, prevV = i, 0, c.VDD
			}
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
	return e.ckt.SolveTranBatch(rows, &opts, fn)
}

// AccessTimeWorkload is the dynamic counterpart of the read-current
// experiment: access-time failure over the read-path pair {ΔVth1, ΔVth3}
// of the fast-read cell. The spec is calibrated like the static
// workloads (see EXPERIMENTS.md): nominal ≈ 31.3 ps with a
// ‖∇‖ ≈ 1.44 ps/σ gradient, so a 39.7 ps budget puts the boundary near
// 4.7σ along the steepest direction.
func AccessTimeWorkload() *TranMetric {
	return &TranMetric{
		Cell: FastRead90nm(), Kind: "access", Spec: 39.7e-12,
		Which: []int{M1, M3},
	}
}
