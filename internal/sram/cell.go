// Package sram models the paper's test vehicle: a 6-T SRAM cell whose
// stability and timing metrics (read noise margin, write noise margin,
// read current, access time) are extracted with transistor-level
// simulation (package spice) by one implementation each: the Metric
// engine.
//
// Transistor naming follows the paper's Fig. 5 usage:
//
//	M1: pull-down (driver) NMOS on the Q side      (gate = QB)
//	M2: pull-down (driver) NMOS on the QB side     (gate = Q)
//	M3: access NMOS between BL and Q               (gate = WL)
//	M4: access NMOS between BLB and QB             (gate = WL)
//	M5: pull-up (load) PMOS on the Q side          (gate = QB)
//	M6: pull-up (load) PMOS on the QB side         (gate = Q)
//
// so that the paper's critical pairs hold: RNM is dominated by
// {ΔVth1, ΔVth3}, WNM by {ΔVth3, ΔVth5}, and the read current is the
// current through M3 (in series with M1) when WL = BL = BLB = VDD.
//
// The variation space is the paper's: independent standard Normal
// coordinates x, mapped to per-transistor threshold mismatches
// ΔVth_i = SigmaVth·x_i (eq. 1 after PCA whitening).
package sram

import (
	"fmt"

	"repro/internal/spice"
	"repro/internal/telemetry"
)

// Transistor indices into mismatch vectors.
const (
	M1 = iota // driver, Q side
	M2        // driver, QB side
	M3        // access, BL–Q
	M4        // access, BLB–QB
	M5        // load, Q side
	M6        // load, QB side
	NumTransistors
)

// Cell holds the design parameters of a 6-T cell.
type Cell struct {
	// VDD is the supply voltage in volts.
	VDD float64
	// Driver, Access are the NMOS model cards; Load is the PMOS card.
	Driver, Access *spice.MOSModel
	Load           *spice.MOSModel
	// SigmaVth is the 1σ local threshold mismatch in volts; normalized
	// variation coordinates are multiplied by it.
	SigmaVth float64
	// Grid is the number of points per transfer-curve sweep used in
	// noise-margin extraction (default 41).
	Grid int
	// Telemetry, when non-nil, is threaded into every DC/transient solve
	// the cell performs (per-solve Newton iterations, fallback counts,
	// solve latencies in the "spice" scope). Purely observational.
	Telemetry *telemetry.Registry
}

// Default90nm returns the cell used throughout the experiments: a
// 90 nm-class design (VDD 1.0 V, minimum-length devices, cell ratio ≈ 1.9,
// pull-up ratio ≈ 0.6) with σ(ΔVth) = 30 mV.
func Default90nm() *Cell {
	return &Cell{
		VDD: 1.0,
		Driver: &spice.MOSModel{
			Type: spice.NMOS, VT0: 0.32, KP: 300e-6, W: 240e-9, L: 100e-9,
			Lambda: 0.10, N: 1.30,
		},
		Access: &spice.MOSModel{
			Type: spice.NMOS, VT0: 0.35, KP: 300e-6, W: 130e-9, L: 100e-9,
			Lambda: 0.10, N: 1.30,
		},
		Load: &spice.MOSModel{
			Type: spice.PMOS, VT0: 0.33, KP: 80e-6, W: 120e-9, L: 100e-9,
			Lambda: 0.12, N: 1.35,
		},
		SigmaVth: 0.030,
		Grid:     41,
	}
}

func (c *Cell) grid() int {
	if c.Grid >= 8 {
		return c.Grid
	}
	return 41
}

// BiasConfig selects the cell's terminal biasing.
type BiasConfig int

// Cell bias configurations.
const (
	// HoldConfig: WL low, bitlines precharged.
	HoldConfig BiasConfig = iota
	// ReadConfig: WL high, both bitlines precharged high.
	ReadConfig
	// WriteConfig: WL high, BL driven low, BLB high (writing 0 into Q).
	WriteConfig
)

func (b BiasConfig) String() string {
	switch b {
	case HoldConfig:
		return "hold"
	case ReadConfig:
		return "read"
	case WriteConfig:
		return "write"
	default:
		return fmt.Sprintf("BiasConfig(%d)", int(b))
	}
}

// build assembles the full 6-T netlist in the given configuration with the
// given per-transistor ΔVth (volts). It returns the circuit and the six
// transistor instances indexed M1..M6.
func (c *Cell) build(cfg BiasConfig, dvth [NumTransistors]float64) (*spice.Circuit, [NumTransistors]*spice.MOSFET) {
	ckt := spice.NewCircuit()
	ckt.AddVSource("vdd", "vdd", "0", c.VDD)
	wl, bl, blb := 0.0, c.VDD, c.VDD
	switch cfg {
	case ReadConfig:
		wl = c.VDD
	case WriteConfig:
		wl, bl = c.VDD, 0
	}
	ckt.AddVSource("vwl", "wl", "0", wl)
	ckt.AddVSource("vbl", "bl", "0", bl)
	ckt.AddVSource("vblb", "blb", "0", blb)

	var ms [NumTransistors]*spice.MOSFET
	ms[M1] = ckt.AddMOSFET("m1", "q", "qb", "0", "0", c.Driver)
	ms[M2] = ckt.AddMOSFET("m2", "qb", "q", "0", "0", c.Driver)
	ms[M3] = ckt.AddMOSFET("m3", "bl", "wl", "q", "0", c.Access)
	ms[M4] = ckt.AddMOSFET("m4", "blb", "wl", "qb", "0", c.Access)
	ms[M5] = ckt.AddMOSFET("m5", "q", "qb", "vdd", "vdd", c.Load)
	ms[M6] = ckt.AddMOSFET("m6", "qb", "q", "vdd", "vdd", c.Load)
	for i := range ms {
		ms[i].DeltaVth = dvth[i]
	}
	return ckt, ms
}

// WriteTripFloor is the lowest artificial bitline voltage probed by the
// WNM metric's write-trip bisection. Letting the bisection continue below
// 0 V keeps the write margin continuous (and hence searchable) past the
// physical write-fail boundary.
const WriteTripFloor = -0.6

// StaticNodeVoltages solves the DC state of the cell in the given
// configuration starting from a stored 0 (Q low) and returns (Q, QB).
func (c *Cell) StaticNodeVoltages(cfg BiasConfig, dvth [NumTransistors]float64) (q, qb float64, err error) {
	ckt, _ := c.build(cfg, dvth)
	op, err := ckt.SolveDC(&spice.DCOptions{
		InitialGuess: map[string]float64{"q": 0, "qb": c.VDD},
		Telemetry:    c.Telemetry,
	})
	if err != nil {
		return 0, 0, err
	}
	return op.Voltage("q"), op.Voltage("qb"), nil
}
