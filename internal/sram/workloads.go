package sram

// Calibrated experiment workloads. The paper's 90 nm PDK sets its specs
// implicitly; our compact model needs explicit calibration so each failure
// probability lands in the paper's 1e-7..1e-6 decade (see EXPERIMENTS.md
// for the calibration measurements):
//
//   - RNM:  nominal 215 mV, ‖∇RNM‖ ≈ 21.8 mV/σ ⇒ spec 111 mV puts the
//     nearest failure boundary at ≈ 4.75σ.
//   - WNM:  nominal write-trip 316 mV, ‖∇WTV‖ ≈ 25.4 mV/σ (linear out to
//     8σ) ⇒ spec 195 mV.
//   - Read current: FastRead90nm cell, nominal 50.4 µA; Ith = 34.5 µA
//     puts the 2-D failure probability at 2.59e-6 by the 0.25σ grid
//     quadrature of cmd/calibrate -grid, which runs low (on dual read
//     it gives 1.02e-6 against the 1.59e-6 closed form). The
//     failure region is the non-convex banana of §V-B: its boundary bends
//     from the weak-driver lobe on the +x1 axis (r ≈ 4.7σ) symmetrically
//     into both half-planes, reaching the read-disturb flip lobes at
//     |x3| ≈ 6–8σ, so the high-probability failure band wraps ≈ ±50°
//     around the most-likely failure point.
const (
	// RNMSpec is the read-noise-margin pass threshold in volts.
	RNMSpec = 0.111
	// WNMSpec is the write-trip pass threshold in volts.
	WNMSpec = 0.195
	// ReadCurrentSpec is the read-current pass threshold in amperes.
	ReadCurrentSpec = 34.5e-6
	// DualReadCurrentSpec is the dual-sided read-current threshold in
	// amperes: the stable cell's single-path current at a 4.8σ access
	// mismatch, putting each of the two symmetric lobes at ≈ 7.9e-7 and
	// the union at ≈ 1.6e-6.
	DualReadCurrentSpec = 29.42e-6
)

// FastRead90nm returns the read-current experiment variant of the cell: a
// deliberately read-marginal sizing (wide low-VT access, narrow high-VT
// driver) whose read-current failure boundary bends around the origin,
// reproducing the irregular non-convex region of the paper's §V-B.
func FastRead90nm() *Cell {
	c := Default90nm()
	c.Access.W = 360e-9
	c.Access.VT0 = 0.28
	c.Driver.W = 130e-9
	c.Driver.VT0 = 0.38
	return c
}

// RNMWorkload is the §V-A read-noise-margin experiment: 6-D variation
// space on the stable cell.
func RNMWorkload() *Metric { return NewRNMMetric(Default90nm(), RNMSpec) }

// WNMWorkload is the §V-A write-margin experiment: 6-D variation space on
// the stable cell.
func WNMWorkload() *Metric { return NewWNMMetric(Default90nm(), WNMSpec) }

// ReadCurrentWorkload is the single-path read-current experiment: 2-D
// variation space {ΔVth1, ΔVth3} on the fast-read cell. Its failure
// region is the mildly non-convex banana of Fig. 13's style; all four
// methods eventually converge on it (the easier regime of §V-B).
func ReadCurrentWorkload() *Metric {
	return NewReadCurrentMetric(FastRead90nm(), ReadCurrentSpec)
}

// DualReadCurrentWorkload is the headline §V-B experiment of this
// reproduction: the dual-sided read current min(I_read0, I_read1) over
// the access-transistor pair {ΔVth3, ΔVth4} of the stable cell. The
// failure region is a single connected, strongly non-convex L — two
// orthogonal high-probability lobes joined only at an improbable corner —
// on which mean-shift importance sampling and Cartesian Gibbs sampling
// underestimate the failure rate while spherical Gibbs sampling stays
// correct, reproducing the paper's Table II contrast.
func DualReadCurrentWorkload() *Metric {
	return &Metric{
		Cell: Default90nm(), Kind: DualRead, Spec: DualReadCurrentSpec,
		Which: []int{M3, M4}, Scale: 1e6,
	}
}
