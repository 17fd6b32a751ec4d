package sram

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/mc"
	"repro/internal/spice"
	"repro/internal/telemetry"
)

// batchMetric is the surface the equivalence suite exercises: scalar
// and batched evaluation of a *Metric.
type batchMetric interface {
	mc.Metric
	ValueBatch(xs [][]float64, out []float64)
}

// equivalenceSamples draws n seeded variation points with a deliberate
// mix of regimes: mostly mild (|x| ≲ 2.5σ, the warm-start sweet spot),
// with a tail of hard corners (≈ ±6σ) that trip the warm-start guard,
// the cold-solve escalation ladder, and — for write metrics — the
// bisection's bifurcation handling. The equivalence claim has to hold on
// every one of those paths, not just the easy ones.
func equivalenceSamples(seed int64, n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, dim)
		for j := range x {
			x[j] = 2.5 * rng.NormFloat64()
		}
		// Every 8th sample is pushed to a hard corner.
		if i%8 == 7 {
			for j := range x {
				x[j] = 6 - 12*float64(j%2)
			}
		}
		xs[i] = x
	}
	return xs
}

// TestBatchScalarBitIdentical is the heart of the equivalence suite:
// for every workload, evaluating a set of samples through ValueBatch —
// partitioned into batches of 1, 7 and 256 — must reproduce the scalar
// Value results bit for bit (exact ==, no tolerance). This is what
// licenses the estimators to dispatch whole chunks to the batch kernel
// without perturbing any published number.
func TestBatchScalarBitIdentical(t *testing.T) {
	holdMetric := &Metric{Cell: Default90nm(), Kind: Hold, Spec: 0.08, Which: AllTransistors()}
	cases := []struct {
		name string
		m    batchMetric
		n    int
	}{
		{"readcurrent", ReadCurrentWorkload(), 256},
		{"dualread", DualReadCurrentWorkload(), 64},
		{"rnm", RNMWorkload(), 24},
		{"wnm", WNMWorkload(), 24},
		{"hold", holdMetric, 16},
		{"access", AccessTimeWorkload(), 24},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			xs := equivalenceSamples(11, tc.n, tc.m.Dim())
			want := make([]float64, tc.n)
			for i, x := range xs {
				want[i] = tc.m.Value(x)
			}
			for _, bs := range []int{1, 7, 256} {
				got := make([]float64, tc.n)
				for lo := 0; lo < tc.n; lo += bs {
					hi := min(lo+bs, tc.n)
					tc.m.ValueBatch(xs[lo:hi], got[lo:hi])
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("batch size %d, sample %d: batch %v != scalar %v (x=%v)",
							bs, i, got[i], want[i], xs[i])
					}
				}
			}
		})
	}
}

// TestWarmStartsMatchColdSolves: the warm starts (the nominal read
// anchor behind the basin guard, the secant-predicted transfer-curve
// points) must land on the operating points a cold SolveDC reaches from
// the same initial guess on the engine's own templates, ±6σ corners
// included. There is no cold production path to compare against, so
// this test is the guard any new warm-start policy or anchor must pass.
func TestWarmStartsMatchColdSolves(t *testing.T) {
	holdMetric := &Metric{Cell: Default90nm(), Kind: Hold, Spec: 0.08, Which: AllTransistors()}
	cases := []struct {
		name string
		m    *Metric
		n    int
	}{
		{"readcurrent", ReadCurrentWorkload(), 64},
		{"dualread", DualReadCurrentWorkload(), 64},
		{"rnm", RNMWorkload(), 24},
		{"hold", holdMetric, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			m := tc.m
			e := m.newEngine()
			if e.err != nil {
				t.Fatal(e.err)
			}
			for _, x := range equivalenceSamples(11, tc.n, m.Dim()) {
				var d [NumTransistors]float64
				for j, tr := range m.Which {
					d[tr] = m.Cell.SigmaVth * x[j]
				}
				warm, err := m.Raw(d)
				if err != nil {
					t.Fatalf("x=%v: %v", x, err)
				}
				cold, err := coldRaw(m, e, d)
				if err != nil {
					t.Fatalf("x=%v: cold: %v", x, err)
				}
				if math.Abs(warm-cold) > 1e-12*math.Abs(cold) {
					t.Fatalf("x=%v: warm %v vs cold %v (rel %.3g)", x, warm, cold, math.Abs(warm-cold)/math.Abs(cold))
				}
			}
		})
	}
}

// coldRaw recomputes m's raw value at ΔVth d with every operating point
// solved cold by SolveDC from the engine's initial guess, on e's
// templates.
func coldRaw(m *Metric, e *metricEngine, d [NumTransistors]float64) (float64, error) {
	c := m.Cell
	if m.Kind == ReadCurrent || m.Kind == DualRead {
		read := func(row []float64) (float64, error) {
			e.read.setDvth(row)
			op, err := e.read.ckt.SolveDC(&spice.DCOptions{InitialGuess: readGuess(c)})
			if err != nil {
				return 0, err
			}
			return math.Abs(e.read.ms[M3].Current(op)), nil
		}
		ia, err := read(d[:])
		if err != nil || m.Kind == ReadCurrent {
			return ia, err
		}
		mirrorRow(d[:])
		ib, err := read(d[:])
		return math.Min(ia, ib), err
	}
	var curves [2]curve
	for k, st := range []*sweepTemplate{e.g1, e.g2} {
		for i, ms := range st.ms {
			ms.DeltaVth = d[i]
		}
		n := c.grid()
		for i := 0; i < n; i++ {
			v := c.VDD * float64(i) / float64(n-1)
			st.force.E = v
			op, err := st.ckt.SolveDC(&spice.DCOptions{InitialGuess: st.guess})
			if err != nil {
				return 0, err
			}
			curves[k].xs = append(curves[k].xs, v)
			curves[k].ys = append(curves[k].ys, op.Voltage(st.measured))
		}
	}
	return eyeSquare(&curves[0], &curves[1], 0, c.VDD), nil
}

// TestBatchInputRowsUntouched: ValueBatch must not mutate caller-owned
// sample rows — the estimators hand the same backing slices to telemetry
// and reducers after evaluation.
func TestBatchInputRowsUntouched(t *testing.T) {
	m := ReadCurrentWorkload()
	xs := equivalenceSamples(5, 32, m.Dim())
	saved := make([][]float64, len(xs))
	for i, x := range xs {
		saved[i] = append([]float64(nil), x...)
	}
	out := make([]float64, len(xs))
	m.ValueBatch(xs, out)
	for i := range xs {
		for j := range xs[i] {
			if xs[i][j] != saved[i][j] {
				t.Fatalf("sample %d coordinate %d mutated: %v -> %v", i, j, saved[i][j], xs[i][j])
			}
		}
	}
}

// TestBatchShortOutputPanics: handing ValueBatch an undersized output
// slice is a programming error and must fail loudly, not truncate.
func TestBatchShortOutputPanics(t *testing.T) {
	m := ReadCurrentWorkload()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for short output slice")
		}
	}()
	m.ValueBatch(make([][]float64, 2, 2), make([]float64, 1))
}

// TestWarmStartTelemetryPaths forces both warm-start outcomes through
// the read-current kernel and checks (a) the telemetry counters see
// them and (b) batch/scalar equivalence survives both paths.
//
// Nominal-ish samples sit next to the ΔVth=0 anchor, so the warm Newton
// converges and passes the read-disturb guard: warm_hit_total advances.
// A +6σ driver / −6σ access corner flips the cell during the read, so
// the guard rejects the warm solution and the kernel re-solves cold:
// warm_fallback_total advances — and the recorded current must still
// equal the scalar path's bit for bit.
func TestWarmStartTelemetryPaths(t *testing.T) {
	m := ReadCurrentWorkload()
	reg := telemetry.New()
	m.SetTelemetry(reg)
	hits := reg.Scope("spice").Counter("warm_hit_total")
	falls := reg.Scope("spice").Counter("warm_fallback_total")

	easy := [][]float64{{0.1, -0.2}, {0.5, 0.3}, {-0.4, 0.1}}
	out := make([]float64, len(easy))
	m.ValueBatch(easy, out)
	if hits.Value() == 0 {
		t.Fatalf("nominal-ish batch recorded no warm-start hits (fallbacks=%d)", falls.Value())
	}

	hard := [][]float64{{6, -6}, {7, -7}}
	before := falls.Value()
	outHard := make([]float64, len(hard))
	m.ValueBatch(hard, outHard)
	if falls.Value() == before {
		t.Fatalf("hard corner batch recorded no warm-start fallbacks (hits=%d)", hits.Value())
	}

	for i, x := range append(append([][]float64{}, easy...), hard...) {
		want := m.Value(x)
		var got float64
		if i < len(easy) {
			got = out[i]
		} else {
			got = outHard[i-len(easy)]
		}
		if got != want {
			t.Fatalf("sample %v: batch %v != scalar %v", x, got, want)
		}
	}
}

// TestCounterValueBatchDelegation: mc.Counter must count every sample of
// a batched evaluation exactly once and still return bit-identical
// values, whether the wrapped metric is batch-capable or scalar-only.
func TestCounterValueBatchDelegation(t *testing.T) {
	m := ReadCurrentWorkload()
	xs := equivalenceSamples(3, 16, m.Dim())
	want := make([]float64, len(xs))
	for i, x := range xs {
		want[i] = m.Value(x)
	}

	for _, tc := range []struct {
		name   string
		metric mc.Metric
	}{
		{"batched", m},
		{"scalar-only", scalarOnly{m}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := mc.NewCounter(tc.metric)
			got := make([]float64, len(xs))
			c.ValueBatch(xs, got)
			if c.Count() != int64(len(xs)) {
				t.Fatalf("counter saw %d evaluations, want %d", c.Count(), len(xs))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("sample %d: %v != %v", i, got[i], want[i])
				}
			}
		})
	}
}

// scalarOnly hides the ValueBatch fast path, leaving only mc.Metric.
type scalarOnly struct{ m *Metric }

func (s scalarOnly) Dim() int                  { return s.m.Dim() }
func (s scalarOnly) Value(x []float64) float64 { return s.m.Value(x) }

// bitsDigest is the SHA-256, in hex, of the little-endian Float64bits
// of vs, in order.
func bitsDigest(vs []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestValueBitsPinned pins each engine kind's Value bits over
// equivalenceSamples(11, 256, dim) to a bitsDigest recorded on amd64
// against the solver of commit e775068, by running this test with
// placeholder digests and copying each one from the failure message.
// Work that must not move a value (a memo, cheaper bookkeeping) keeps
// every digest; a change that moves these bits on purpose records new
// digests here and says so in CHANGES.md. Readcurrent is pinned by
// TestReadCurrentFoldBitsPinned, whose samples include these.
func TestValueBitsPinned(t *testing.T) {
	// The Go spec lets a compiler fuse x*y + z into one rounding, which
	// moves low bits of the solves; amd64 never fuses.
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	holdMetric := &Metric{Cell: Default90nm(), Kind: Hold, Spec: 0.08, Which: AllTransistors()}
	writeMetric := &Metric{Cell: Default90nm(), Kind: WriteDelay, Which: []int{M3, M5}}
	cases := []struct {
		name   string
		m      *Metric
		digest string
	}{
		{"rnm", RNMWorkload(), "d105291be86354625903f24c7e868f5d55a8ba90d91bad05bef0940266abb5b7"},
		{"hold", holdMetric, "d00d17e02faa30edd2c9f0807e8663ecee7ff0d58fb3f057605c901a4de9f57e"},
		{"wnm", WNMWorkload(), "8653a498326a59b5c561113c568025e15475b780107f5c85307effdbd8e68926"},
		{"dualread", DualReadCurrentWorkload(), "efe178f64ed4bf66de48390fd10a70aff2ce633565ccada35abef11dffe5d282"},
		{"access", AccessTimeWorkload(), "6950fa40fa8f1ee147840ce6d35340ac6caa33ee83bc9058ba1aed69d0dc4d93"},
		{"writedelay", writeMetric, "fd3c8dd59adf4dfbf1510596a6ac6562d36d5e25a44188aea5596f91d7c3acd5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			xs := equivalenceSamples(11, 256, tc.m.Dim())
			out := make([]float64, len(xs))
			for i, x := range xs {
				out[i] = tc.m.Value(x)
			}
			if got := bitsDigest(out); got != tc.digest {
				t.Errorf("Value bits over %d samples: digest %s, want %s", len(xs), got, tc.digest)
			}
		})
	}
}
