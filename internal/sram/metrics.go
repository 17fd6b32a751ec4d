package sram

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mc"
	"repro/internal/spice"
	"repro/internal/telemetry"
)

// MetricKind selects which cell performance the Metric evaluates.
type MetricKind int

// Supported circuit metrics.
const (
	// RNM: read noise margin (state-0 butterfly eye under read bias).
	// The paper analyzes one failure mechanism at a time (§IV-A); the
	// symmetric read-1 failure rate is obtained by doubling.
	RNM MetricKind = iota
	// WNM: write margin, the bitline write-trip voltage (a larger value
	// means an easier write).
	WNM
	// ReadCurrent: |I(M3)| (the series M3–M1 read path) at the read
	// operating point with the cell holding a 0 at Q.
	ReadCurrent
	// Hold: retention margin (state-0 eye with the word line off).
	Hold
	// DualRead: min(I_read0 through M3, I_read1 through M4 on the
	// mirrored cell). Over the access pair (ΔVth3, ΔVth4) its failure
	// region is two orthogonal half-plane lobes joined at the far corner:
	// this library's stand-in for the irregular §V-B region (DESIGN.md).
	DualRead
	// AccessTime: the read delay of a stored 0 through floating
	// precharged bitlines, from the WL edge until the bitline
	// differential reaches Bench.Sense. The transient closes the §V-B
	// loop: "the read current directly impacts the discharge speed of
	// bit lines during a read operation".
	AccessTime
	// WriteDelay: BL driven low into a cell storing 1, from the WL edge
	// until Q falls through VDD/2.
	WriteDelay
)

func (k MetricKind) String() string {
	switch k {
	case RNM:
		return "rnm"
	case WNM:
		return "wnm"
	case ReadCurrent:
		return "readcurrent"
	case Hold:
		return "hold"
	case DualRead:
		return "dualread"
	case AccessTime:
		return "access"
	case WriteDelay:
		return "writedelay"
	default:
		return fmt.Sprintf("MetricKind(%d)", int(k))
	}
}

// Metric adapts a cell metric to the mc.Metric margin convention: the
// sample fails when the margin is negative. The margin is the metric
// value minus Spec, except for the timing kinds, which fail high: their
// margin is Spec minus the delay. Variation coordinates are
// standard-Normal; coordinate j drives transistor Which[j] with
// ΔVth = SigmaVth·x_j.
//
// Metrics are safe for concurrent use and must not be copied after first
// use: evaluation leans on a shared engine free list and a once-computed
// warm-start anchor (see plan.go).
type Metric struct {
	Cell *Cell
	Kind MetricKind
	// Spec is the pass/fail threshold in the metric's own unit (volts
	// for margins, amperes for read current, seconds for delays).
	Spec float64
	// Bench tunes the transient test bench of the timing kinds
	// (nil = defaults).
	Bench *TranSpec
	// Which lists the transistors exposed as variation coordinates; the
	// remaining transistors stay at nominal ΔVth = 0.
	Which []int
	// Scale converts the raw margin to a well-conditioned magnitude for
	// response-surface fitting (default 1).
	Scale float64

	// Engine free list and the deterministic warm-start anchor
	// (plan.go). Zero values are ready to use, keeping literal
	// construction working.
	mu         sync.Mutex
	engines    []*metricEngine
	anchorOnce sync.Once
	anchor     *spice.OperatingPoint
}

// AllTransistors is the full 6-dimensional variation space.
func AllTransistors() []int { return []int{M1, M2, M3, M4, M5, M6} }

// NewRNMMetric builds the paper's §V-A read-noise-margin workload: all six
// ΔVth as variation coordinates, failing when RNM < spec.
func NewRNMMetric(cell *Cell, spec float64) *Metric {
	return &Metric{Cell: cell, Kind: RNM, Spec: spec, Which: AllTransistors()}
}

// NewWNMMetric builds the §V-A write-margin workload.
func NewWNMMetric(cell *Cell, spec float64) *Metric {
	return &Metric{Cell: cell, Kind: WNM, Spec: spec, Which: AllTransistors()}
}

// NewReadCurrentMetric builds the §V-B read-current workload: a 2-D
// variation space over {ΔVth1, ΔVth3} (driver and access of the read
// path), failing when the read current drops below ith amperes.
func NewReadCurrentMetric(cell *Cell, ith float64) *Metric {
	return &Metric{
		Cell: cell, Kind: ReadCurrent, Spec: ith,
		Which: []int{M1, M3},
		// Read currents are µA-scale; rescale so margins are O(1) for
		// the response-surface solver.
		Scale: 1e6,
	}
}

// Dim implements mc.Metric.
func (m *Metric) Dim() int { return len(m.Which) }

// Value implements mc.Metric: the signed margin at normalized variation
// point x. Simulation failures (non-convergence) are treated as circuit
// failures with a finite, physically-grounded worst-case raw value
// (errorValue); keeping the margin finite protects the response-surface
// fits in Algorithm 4 from being poisoned by an occasional hard corner.
//
// Value is literally ValueBatch with a batch of one — the same engine
// code against the same anchor — which is what makes batched and scalar
// evaluation bit-identical per sample.
func (m *Metric) Value(x []float64) float64 {
	var out [1]float64
	xs := [1][]float64{x}
	m.ValueBatch(xs[:], out[:])
	return out[0]
}

// ValueBatch implements mc.BatchMetric: margins for a whole batch of
// samples, evaluated on one reusable engine (prebuilt netlist templates,
// cached solver workspaces, the nominal-corner warm start). out must
// have at least len(xs) entries. Each sample's result depends only on
// its own coordinates; see the determinism contract in plan.go.
func (m *Metric) ValueBatch(xs [][]float64, out []float64) {
	if len(out) < len(xs) {
		panic(fmt.Sprintf("sram: batch output length %d < %d samples", len(out), len(xs)))
	}
	out = out[:len(xs)]
	m.ensureAnchor()
	e := m.getEngine()
	defer m.putEngine(e)
	rows := e.dvthRows(m, xs)
	errs := make([]error, len(xs))
	m.rawBatch(e, rows, out, errs)
	scale := m.Scale
	//reprolint:ignore floateq Scale is user-assigned configuration, never computed; exact 0 is the unset sentinel
	if scale == 0 {
		scale = 1
	}
	for i, raw := range out {
		if errs[i] != nil || math.IsNaN(raw) || math.IsInf(raw, 0) {
			raw = m.errorValue()
		}
		if m.Kind == AccessTime || m.Kind == WriteDelay {
			out[i] = (m.Spec - raw) * scale
		} else {
			out[i] = (raw - m.Spec) * scale
		}
	}
}

// Raw returns the metric's raw value — volts for margins, amperes for
// read current, seconds for delays, before Spec and Scale apply — at a
// full per-transistor ΔVth vector in volts (Which is not consulted),
// with the simulation error that Value would replace by the worst case.
// It runs Value's own engine code, anchor and guards, so Raw at
// ΔVth_Which[j] = SigmaVth·x_j is the raw value behind Value(x).
func (m *Metric) Raw(dvth [NumTransistors]float64) (float64, error) {
	m.ensureAnchor()
	e := m.getEngine()
	defer m.putEngine(e)
	var out [1]float64
	var errs [1]error
	m.rawBatch(e, [][]float64{dvth[:]}, out[:], errs[:])
	return out[0], errs[0]
}

// errorValue is the raw metric value substituted when a simulation fails
// to converge: the metric's physical worst case.
func (m *Metric) errorValue() float64 {
	switch m.Kind {
	case WNM:
		return WriteTripFloor // write never succeeds
	case ReadCurrent, DualRead:
		return 0 // no read current at all
	case AccessTime, WriteDelay:
		return m.Bench.defaults().Stop // the cell never resolves
	default:
		return -m.Cell.VDD // fully collapsed noise margin
	}
}

// SetTelemetry threads a telemetry registry into the cell's SPICE solves
// (solver iteration counts, fallback strategies, solve latencies). The
// top-level flow calls it when run telemetry is enabled; it is purely
// observational.
func (m *Metric) SetTelemetry(reg *telemetry.Registry) { m.Cell.Telemetry = reg }

var _ mc.BatchMetric = (*Metric)(nil)
