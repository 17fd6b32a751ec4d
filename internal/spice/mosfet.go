package spice

import (
	"math"

	"repro/internal/linalg"
)

// MOSType distinguishes n-channel from p-channel devices.
type MOSType int

// MOSFET channel polarities.
const (
	NMOS MOSType = iota
	PMOS
)

// MOSModel is a charge-sheet (EKV-style) compact model card. The model is
// continuous from weak through strong inversion and symmetric in
// drain/source, which keeps Newton iteration robust — the property that
// matters for the tens of thousands of operating-point solves behind each
// failure-rate estimate.
//
// Large-signal current (bulk-referenced, NMOS polarity):
//
//	vp  = (Vgb − (VT0 + ΔVth)) / N
//	F(u) = softplus(u / (2·Vt))²
//	Id  = 2·N·β·Vt² · (F(vp − Vsb) − F(vp − Vdb)) · (1 + λ·|Vds|)
//
// with β = KP·W/L. In strong-inversion saturation this reduces to the
// square law Id ≈ β/(2N)·(Vgs − VthEff)², with an effective body-effect
// slope dVthEff/dVsb = N − 1. Subthreshold behaviour is exponential with
// slope factor N.
type MOSModel struct {
	Type MOSType
	// VT0 is the zero-bias threshold voltage magnitude in volts (positive
	// for both polarities).
	VT0 float64
	// KP is the transconductance parameter µ·Cox in A/V².
	KP float64
	// W and L are the drawn width and length in meters.
	W, L float64
	// Lambda is the channel-length-modulation coefficient in 1/V.
	Lambda float64
	// N is the subthreshold slope factor (typically 1.2–1.5).
	N float64
	// Vt is the thermal voltage kT/q (defaults to 25.85 mV at 300 K when
	// zero).
	Vt float64
}

// Beta returns KP·W/L.
func (m *MOSModel) Beta() float64 { return m.KP * m.W / m.L }

func (m *MOSModel) vt() float64 {
	if m.Vt > 0 {
		return m.Vt
	}
	return 0.02585
}

func (m *MOSModel) slope() float64 {
	if m.N > 0 {
		return m.N
	}
	return 1.3
}

// MOSFET is a model instance bound to circuit nodes. DeltaVth is the
// per-instance local threshold-voltage mismatch — the random variable of
// the paper's variation space (ΔVth1 … ΔVth6 for the 6-T cell).
//
// Each MOSFET remembers its last forward and reverse softplus evaluation
// (see spMemo), so it carries mutable state: Eval, Stamp and Current on
// one MOSFET must not run on two goroutines at once. That is the
// Circuit's single-goroutine solving contract, and it needs no lock.
// The zero value of the memo is empty, so a MOSFET literal is ready to
// use.
type MOSFET struct {
	// Memos of the source-side (forward) and drain-side (reverse)
	// softplusSq calls.
	fwd, rev spMemo

	name       string
	d, g, s, b int
	Model      *MOSModel
	DeltaVth   float64
}

// spMemo holds one softplusSq argument, keyed by its bits, and the
// result computed for it. softplusSq is a pure function of its argument,
// and ΔVth, the model card and the terminal voltages reach it only
// through that argument, so a hit returns exactly the bits a fresh call
// would compute: the memo needs no invalidation. It pays where an
// argument repeats between consecutive evaluations of one device, as in
// a forced transfer-curve point, whose rail-sourced devices keep their
// forward argument for the whole solve. The zero value is empty; ok
// marks a filled slot, since an argument of +0 has bits 0.
type spMemo struct {
	arg   uint64
	f, df float64
	ok    bool
}

// softplusSq returns softplusSq(u), from the memo when u's bits match
// the last argument. The hit path is small enough to inline.
func (c *spMemo) softplusSq(u float64) (f, df float64) {
	if !c.ok || c.arg != math.Float64bits(u) {
		c.fill(u)
	}
	return c.f, c.df
}

// fill computes softplusSq(u) and remembers it.
func (c *spMemo) fill(u float64) {
	f, df := softplusSq(u)
	*c = spMemo{arg: math.Float64bits(u), f: f, df: df, ok: true}
}

// Name returns the device name.
func (t *MOSFET) Name() string { return t.name }

// mosEval computes the drain current and its partial derivatives with
// respect to the terminal voltages for NMOS polarity. Voltages are
// absolute node voltages. It forms 1/(2·Vt) and 1/N once per call and
// multiplies by them.
func (t *MOSFET) mosEval(vd, vg, vs, vb float64) (id, dId_dVd, dId_dVg, dId_dVs, dId_dVb float64) {
	m := t.Model
	vt := m.vt()
	n := m.slope()
	beta := m.Beta()
	inv2vt := 0.5 / vt
	invN := 1 / n

	vgb := vg - vb
	vsb := vs - vb
	vdb := vd - vb
	vds := vd - vs

	vp := (vgb - (m.VT0 + t.DeltaVth)) * invN

	fF, dF := t.fwd.softplusSq((vp - vsb) * inv2vt)
	fR, dR := t.rev.softplusSq((vp - vdb) * inv2vt)
	// d/du of F wrt its voltage argument u carries the 1/(2vt) factor.
	dFdu := dF * inv2vt
	dRdu := dR * inv2vt

	i0 := 2 * n * beta * vt * vt
	iCh := i0 * (fF - fR)

	// Smooth channel-length modulation, symmetric in Vds.
	const clmEps = 1e-4
	sabs := math.Sqrt(vds*vds + clmEps*clmEps)
	clm := 1 + m.Lambda*sabs
	dClm_dVds := m.Lambda * vds / sabs

	id = iCh * clm

	// Derivatives of iCh with respect to the bulk-referenced arguments.
	diCh_dVgb := i0 * (dFdu - dRdu) * invN
	diCh_dVsb := i0 * (-dFdu)
	diCh_dVdb := i0 * (dRdu)

	dId_dVg = diCh_dVgb * clm
	dId_dVs = diCh_dVsb*clm - iCh*dClm_dVds
	dId_dVd = diCh_dVdb*clm + iCh*dClm_dVds
	dId_dVb = -(dId_dVg + dId_dVs + dId_dVd)
	return id, dId_dVd, dId_dVg, dId_dVs, dId_dVb
}

// softplusSq returns f = softplus(u)² and df = d f / d u = 2·softplus(u)·σ(u),
// both from one exponential e = e^−|u|: softplus(u) = max(u, 0) +
// log1p(e), and σ(u) = 1/(1+e) for u > 0 and e/(1+e) otherwise. Since
// e ≤ 1 nothing overflows at any u, so no asymptotic branch is needed;
// far below 0, f ≈ e² and df ≈ 2e² underflow to 0. At 200k random
// arguments in [−60, 60], f was within 5.9 ulp of its 200-bit reference
// and df within 5.4; TestSoftplusSqAsymptotes holds a committed table of
// such references to 8 ulp.
func softplusSq(u float64) (f, df float64) {
	e := math.Exp(-math.Abs(u))
	sp := math.Log1p(e)
	if u > 0 {
		sp += u
		return sp * sp, 2 * sp / (1 + e)
	}
	return sp * sp, 2 * sp * e / (1 + e)
}

// Eval returns the drain current and terminal conductances at absolute
// node voltages, handling polarity. For PMOS the returned current keeps
// the NMOS sign convention of current flowing into the drain terminal
// (so a conducting PMOS pulling its drain up has negative id).
//
// Eval reads and updates the device's softplus memo. Its results are
// bit for bit those of a fresh MOSFET at the same inputs, whatever the
// device evaluated before, but two goroutines must not call it on one
// MOSFET at once.
func (t *MOSFET) Eval(vd, vg, vs, vb float64) (id, gd, gg, gs, gb float64) {
	if t.Model.Type == NMOS {
		return t.mosEval(vd, vg, vs, vb)
	}
	// PMOS: mirror voltages; Id' (into drain) = −IdN(−V...); derivatives
	// keep their sign: dId'/dV = −dIdN/d(−V)·(−1)... which equals dIdN/dV
	// evaluated at mirrored voltages.
	id, gd, gg, gs, gb = t.mosEval(-vd, -vg, -vs, -vb)
	return -id, gd, gg, gs, gb
}

// Stamp implements Device: current id flows drain→source through the
// channel, leaving the drain node and entering the source node.
func (t *MOSFET) Stamp(x []float64, f []float64, j *linalg.Matrix) {
	vd := voltageAt(x, t.d)
	vg := voltageAt(x, t.g)
	vs := voltageAt(x, t.s)
	vb := voltageAt(x, t.b)
	id, gd, gg, gs, gb := t.Eval(vd, vg, vs, vb)

	nodes := [4]int{t.d, t.g, t.s, t.b}
	grads := [4]float64{gd, gg, gs, gb}
	if t.d >= 0 {
		f[t.d] += id
		for k, nk := range nodes {
			if nk >= 0 {
				j.Add(t.d, nk, grads[k])
			}
		}
	}
	if t.s >= 0 {
		f[t.s] -= id
		for k, nk := range nodes {
			if nk >= 0 {
				j.Add(t.s, nk, -grads[k])
			}
		}
	}
}
