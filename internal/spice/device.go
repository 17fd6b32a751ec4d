package spice

import "repro/internal/linalg"

// Device is anything that stamps residual currents and Jacobian
// conductances into the MNA system. The residual convention is
// f(node) = Σ currents *leaving* the node through devices; Newton solves
// f(x) = 0.
type Device interface {
	Name() string
	// Stamp adds the device's contribution at operating point x to the
	// residual f and Jacobian j.
	Stamp(x []float64, f []float64, j *linalg.Matrix)
}

// Resistor is a linear two-terminal resistor.
type Resistor struct {
	name string
	p, m int
	g    float64 // conductance
}

// Name returns the device name.
func (r *Resistor) Name() string { return r.name }

// Stamp implements Device.
func (r *Resistor) Stamp(x []float64, f []float64, j *linalg.Matrix) {
	i := r.g * (voltageAt(x, r.p) - voltageAt(x, r.m))
	if r.p >= 0 {
		f[r.p] += i
		j.Add(r.p, r.p, r.g)
		if r.m >= 0 {
			j.Add(r.p, r.m, -r.g)
		}
	}
	if r.m >= 0 {
		f[r.m] -= i
		j.Add(r.m, r.m, r.g)
		if r.p >= 0 {
			j.Add(r.m, r.p, -r.g)
		}
	}
}

// VSource is an independent voltage source with an MNA branch current.
type VSource struct {
	name   string
	p, m   int
	branch int
	// E is the source value in volts; sweeps mutate it between solves.
	E float64
	// Waveform, when non-nil, makes the source time-varying during
	// transient analysis: E is set to Waveform(t) at every step. DC
	// analyses use E directly.
	Waveform func(t float64) float64
}

// StepWaveform returns a waveform that switches from v0 to v1 at tStep
// with a linear ramp of length tRise.
func StepWaveform(v0, v1, tStep, tRise float64) func(float64) float64 {
	return func(t float64) float64 {
		switch {
		case t <= tStep:
			return v0
		case t >= tStep+tRise:
			return v1
		default:
			return v0 + (v1-v0)*(t-tStep)/tRise
		}
	}
}

// Name returns the device name.
func (v *VSource) Name() string { return v.name }

// ISource is an independent current source pushing I from plus to minus
// through itself.
type ISource struct {
	name string
	p, m int
	I    float64
}

// Name returns the device name.
func (s *ISource) Name() string { return s.name }

// Stamp implements Device.
func (s *ISource) Stamp(x []float64, f []float64, j *linalg.Matrix) {
	if s.p >= 0 {
		f[s.p] += s.I
	}
	if s.m >= 0 {
		f[s.m] -= s.I
	}
}
